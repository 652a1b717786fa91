package replay

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// ringSet builds an eager ring: every iteration each rank computes, sends
// to its right neighbour and receives from its left. Eager sends do not
// block, so the uniform order cannot deadlock.
func ringSet(n, iters int, size units.Bytes) *trace.Set {
	ts := trace.NewSet("ring", "original", n, 1000)
	for r := 0; r < n; r++ {
		next, prev := (r+1)%n, (r+n-1)%n
		for it := 0; it < iters; it++ {
			ts.Traces[r].Append(
				trace.Burst(int64(500+100*(r%3))),
				trace.Send(next, it, size),
				trace.Recv(prev, it, size),
			)
		}
	}
	return ts
}

// rendezvousPairs exchanges large (rendezvous) messages pairwise with
// even/odd ordering so blocking sends cannot deadlock, plus a blocking
// send one rank further every other iteration to cross shard boundaries.
func rendezvousPairs(n, iters int, size units.Bytes) *trace.Set {
	ts := trace.NewSet("rdv", "original", n, 1000)
	for r := 0; r < n; r++ {
		peer := r ^ 1 // pairwise partner
		if peer >= n {
			peer = r
		}
		for it := 0; it < iters; it++ {
			tr := &ts.Traces[r]
			tr.Append(trace.Burst(int64(300 * (1 + r%2))))
			if peer == r {
				continue // odd rank count: the last rank only computes
			}
			if r%2 == 0 {
				tr.Append(trace.Send(peer, it, size), trace.Recv(peer, it, size))
			} else {
				tr.Append(trace.Recv(peer, it, size), trace.Send(peer, it, size))
			}
		}
	}
	return ts
}

// haloSet overlaps computation with request-based halo exchange: IRecv from
// both neighbours, ISend to both, compute, then wait on all four requests.
// Sizes alternate across the eager threshold so both protocols appear.
func haloSet(n, iters int) *trace.Set {
	ts := trace.NewSet("halo", "original", n, 1000)
	for r := 0; r < n; r++ {
		next, prev := (r+1)%n, (r+n-1)%n
		for it := 0; it < iters; it++ {
			size := units.Bytes(1000)
			if it%2 == 1 {
				size = 64 * units.KB // above testConfig's eager threshold
			}
			base := it * 10
			ts.Traces[r].Append(
				trace.IRecv(prev, it, size, base+1),
				trace.IRecv(next, 1000+it, size, base+2),
				trace.ISend(next, it, size, base+3),
				trace.ISend(prev, 1000+it, size, base+4),
				trace.Burst(int64(2000+37*r)),
				trace.Wait(base+1), trace.Wait(base+2),
				trace.Wait(base+3), trace.Wait(base+4),
				trace.Marker("iter"),
			)
		}
	}
	return ts
}

// withWorkers forces des.Windows onto its spawning path (see the des
// package tests): without it a single-CPU machine runs every shard inline
// and the cross-shard synchronization goes untested.
func withWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// normalizeWindows checks the parallel run actually engaged (or not, per
// want) and then zeroes the round count so the remainder of the result can
// be compared structurally against the sequential run.
func normalizeWindows(t *testing.T, res *Result, wantParallel bool) {
	t.Helper()
	if wantParallel && res.Windows == 0 {
		t.Fatal("parallel engine did not engage (Windows == 0)")
	}
	if !wantParallel && res.Windows != 0 {
		t.Fatalf("parallel engine engaged unexpectedly (Windows == %d)", res.Windows)
	}
	res.Windows = 0
}

// TestParallelMatchesSequential is the core identity check: for workloads
// covering eager, rendezvous, request-based and node-local transfers, the
// parallel engine must reproduce the sequential result exactly — every
// timeline interval, rank breakdown, network stat and the step count.
func TestParallelMatchesSequential(t *testing.T) {
	withWorkers(t)
	type tc struct {
		name string
		ts   *trace.Set
		cfg  machine.Config
	}
	local := testConfig()
	local.RanksPerNode = 4
	local.LocalLatency = 2 * units.Microsecond
	overhead := testConfig()
	overhead.CPUOverhead = 500 * units.Nanosecond
	cases := []tc{
		{"eager-ring-16", ringSet(16, 6, 2000), testConfig()},
		{"eager-ring-17-uneven-shards", ringSet(17, 5, 1500), testConfig()},
		{"rendezvous-pairs-16", rendezvousPairs(16, 4, 64*units.KB), testConfig()},
		{"rendezvous-pairs-19-odd", rendezvousPairs(19, 4, 64*units.KB), testConfig()},
		{"halo-mixed-protocol-16", haloSet(16, 4), testConfig()},
		{"local-and-remote-16", ringSet(16, 6, 2000), local},
		{"cpu-overhead-16", haloSet(16, 3), overhead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := Simulate(c.ts, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 3, 4, 16} {
				got, err := SimulatePar(c.ts, c.cfg, par)
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				normalizeWindows(t, got, true)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("par=%d result diverges from sequential\ngot:  total=%v steps=%d net=%+v\nwant: total=%v steps=%d net=%+v",
						par, got.Total, got.Steps, got.Network, want.Total, want.Steps, want.Network)
				}
			}
		})
	}
}

// TestParallelPropertyMatchesSequential fuzzes the identity on random
// collective-free workloads over 16..24 ranks with random protocols.
func TestParallelPropertyMatchesSequential(t *testing.T) {
	withWorkers(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(9)
		ts := trace.NewSet("par-prop", "original", n, units.MIPS(rng.Intn(2000)+100))
		for p := 0; p < rng.Intn(60)+10; p++ {
			src := rng.Intn(n)
			dst := (src + 1 + rng.Intn(n-1)) % n
			size := units.Bytes(rng.Intn(1 << 17)) // both sides of the eager threshold
			tag := p
			s, d := &ts.Traces[src], &ts.Traces[dst]
			s.Append(trace.Burst(int64(rng.Intn(5000))))
			d.Append(trace.Burst(int64(rng.Intn(5000))))
			if rng.Intn(2) == 0 {
				req := 5000 + p
				s.Append(trace.ISend(dst, tag, size, req), trace.Burst(int64(rng.Intn(2000))), trace.Wait(req))
			} else {
				s.Append(trace.Send(dst, tag, size))
			}
			if rng.Intn(2) == 0 {
				req := 9000 + p
				d.Append(trace.IRecv(src, tag, size, req), trace.Burst(int64(rng.Intn(2000))), trace.Wait(req))
			} else {
				d.Append(trace.Recv(src, tag, size))
			}
		}
		cfg := testConfig()
		if rng.Intn(2) == 0 {
			cfg.RanksPerNode = 1 + rng.Intn(4)
		}
		want, err := Simulate(ts, cfg)
		if err != nil {
			// Random blocking rendezvous orders can deadlock; the parallel
			// engine must agree that they do.
			_, perr := SimulatePar(ts, cfg, 4)
			return perr != nil
		}
		got, err := SimulatePar(ts, cfg, 2+rng.Intn(5))
		if err != nil {
			return false
		}
		got.Windows = 0
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestParallelFallsBackWhenIneligible pins every eligibility condition:
// each ineligible run must report Windows == 0 and still match sequential.
func TestParallelFallsBackWhenIneligible(t *testing.T) {
	eligible := ringSet(16, 3, 2000)
	withColl := ringSet(16, 3, 2000)
	for r := range withColl.Traces {
		withColl.Traces[r].Append(trace.Global(trace.Barrier, 0, 0))
	}
	buses := testConfig()
	buses.Buses = 8
	links := testConfig()
	links.InLinks, links.OutLinks = 2, 2
	zeroLat := testConfig()
	zeroLat.Latency = 0
	cases := []struct {
		name string
		ts   *trace.Set
		cfg  machine.Config
		par  int
	}{
		{"par-below-2", eligible, testConfig(), 1},
		{"below-rank-threshold", ringSet(8, 3, 2000), testConfig(), 4},
		{"collectives", withColl, testConfig(), 4},
		{"buses", eligible, buses, 4},
		{"links", eligible, links, 4},
		{"zero-latency", eligible, zeroLat, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := Simulate(c.ts, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulatePar(c.ts, c.cfg, c.par)
			if err != nil {
				t.Fatal(err)
			}
			normalizeWindows(t, got, false)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("fallback result diverges from sequential")
			}
		})
	}
}

// TestParallelThresholdOverride checks parThreshold opens the parallel
// engine to small runs (the batch benches and fuzzers rely on this).
func TestParallelThresholdOverride(t *testing.T) {
	ts := ringSet(4, 4, 2000)
	want, err := Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newReplayer()
	r.parallel = 2
	r.parThreshold = 2
	got, err := r.Simulate(ts, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	normalizeWindows(t, got, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("threshold-overridden parallel run diverges from sequential")
	}
}

// TestParallelDeadlockDetected: an unmatched receive must surface as the
// same deadlock error the sequential engine reports.
func TestParallelDeadlockDetected(t *testing.T) {
	withWorkers(t)
	ts := ringSet(16, 2, 2000)
	ts.Traces[5].Append(trace.Recv(4, 999, 100)) // never sent
	if _, err := Simulate(ts, testConfig()); err == nil {
		t.Fatal("sequential replay missed the deadlock")
	}
	_, err := SimulatePar(ts, testConfig(), 4)
	if err == nil {
		t.Fatal("parallel replay missed the deadlock")
	}
}

// TestParallelReplayerReuse interleaves parallel and sequential runs on one
// replayer: recycled scratch state from one mode must not leak into the
// other.
func TestParallelReplayerReuse(t *testing.T) {
	withWorkers(t)
	r := newReplayer()
	ts := haloSet(16, 3)
	cfg := testConfig()
	want, err := Simulate(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.parallel = 4
		got, err := r.Simulate(ts, cfg)
		if err != nil {
			t.Fatalf("round %d parallel: %v", i, err)
		}
		normalizeWindows(t, got, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d parallel diverges", i)
		}
		r.parallel = 0
		got, err = r.Simulate(ts, cfg)
		if err != nil {
			t.Fatalf("round %d sequential: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d sequential-after-parallel diverges", i)
		}
	}
}
