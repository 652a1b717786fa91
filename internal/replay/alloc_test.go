package replay

import (
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
)

// mixedSet exercises every hot-path object class: bursts, eager and
// rendezvous point-to-point (blocking and request-based), collectives and
// markers — so the allocation guard below covers all free lists at once.
func mixedSet() *trace.Set {
	const n = 4
	ts := trace.NewSet("mixed", "original", n, 1000)
	for r := 0; r < n; r++ {
		tr := &ts.Traces[r]
		tr.Append(trace.Marker("setup"))
		next, prev := (r+1)%n, (r+n-1)%n
		for iter := 0; iter < 3; iter++ {
			req := 100 + iter
			tr.Append(
				trace.IRecv(prev, iter, 2000, req),
				trace.Burst(3000),
				trace.Send(next, iter, 2000),
				trace.Wait(req),
				trace.Global(trace.Allreduce, 64, 0),
			)
		}
	}
	return ts
}

// TestReplayerReuseMatchesFreshSimulate pins the reuse contract: a single
// replayer run repeatedly — including across different trace shapes, and
// after an errored run — must produce results identical to a cold Simulate.
func TestReplayerReuseMatchesFreshSimulate(t *testing.T) {
	cfg := testConfig()
	cfg.Buses = 1 // force resource queueing through the pending path
	sets := []*trace.Set{mixedSet(), pipelineSet(), mixedSet()}
	r := newReplayer()
	for round := 0; round < 3; round++ {
		for _, ts := range sets {
			want, err := newReplayer().Simulate(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Simulate(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Total != want.Total || got.Steps != want.Steps || got.Network != want.Network {
				t.Fatalf("round %d %s: reused replayer diverged: %+v vs %+v",
					round, ts.Name, got, want)
			}
			if !reflect.DeepEqual(got.Timelines, want.Timelines) {
				t.Fatalf("round %d %s: reused replayer timelines diverged", round, ts.Name)
			}
		}
		// An aborted run (deadlock) must not poison the replayer's state.
		bad := trace.NewSet("dead", "original", 2, 1000)
		bad.Traces[0].Append(trace.Send(1, 0, 64000), trace.Recv(1, 1, 64000))
		bad.Traces[1].Append(trace.Send(0, 1, 64000), trace.Recv(0, 0, 64000))
		deadCfg := cfg
		deadCfg.EagerThreshold = 0
		if _, err := r.Simulate(bad, deadCfg); err == nil {
			t.Fatal("expected deadlock error")
		}
	}
}

// TestReplaySteadyStateAllocs is the steady-state guard: once a replayer
// is warm, a full Simulate run must only allocate the result snapshot it
// hands back — one block holding the Result and its timeline set, the
// lines slice, and the two interval/event arenas every rank's snapshot is
// carved from. That is at most 4 allocations per run regardless of rank
// count (3 without markers); the event loop itself (scheduling, transfers,
// collectives, matching, contention arbitration) contributes zero. A rise
// here means per-event or per-rank allocation crept back into the replay
// hot path.
func TestReplaySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is pinned by the non-race run")
	}
	ts := mixedSet()
	for _, cfg := range []machine.Config{testConfig(), contendedConfig()} {
		r := newReplayer()
		for i := 0; i < 3; i++ { // warm free lists, queues, builders
			res, err := r.Simulate(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Buses > 0 && res.Network.MaxPending < 2 {
				t.Fatal("contended case queued no transfer")
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.Simulate(ts, cfg); err != nil {
				t.Fatal(err)
			}
		})
		const budget = 4
		if allocs > budget {
			t.Errorf("buses=%d: warm Simulate allocates %.1f/run, budget %d", cfg.Buses, allocs, budget)
		}
	}
}

// contendedConfig is testConfig with one bus and one link each way per
// node, so transfers queue in the arbiter.
func contendedConfig() machine.Config {
	c := testConfig()
	c.Buses, c.InLinks, c.OutLinks = 1, 1, 1
	return c
}

// TestSummarySteadyStateAllocs tightens the guard to zero for the warm
// summary path — what every sweep memo fill pays. Result assembly is
// the only allocation Simulate makes when warm, and SimulateBatch skips
// it; the parallel engine must hold the same line once its shard state
// exists, and so must the sequential engine on a contended platform.
func TestSummarySteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is pinned by the non-race run")
	}
	out := make([]Summary, 1)
	for _, tc := range []struct {
		par int
		ts  *trace.Set
		cfg machine.Config
	}{
		{0, pipelineSet(), testConfig()},
		{4, pipelineSet(), testConfig()}, // collective-free: eligible for the parallel engine
		{0, mixedSet(), contendedConfig()},
	} {
		ts, cfgs := tc.ts, []machine.Config{tc.cfg}
		r := newReplayer()
		r.parallel = tc.par
		r.parThreshold = 2
		for i := 0; i < 3; i++ {
			if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
				t.Fatal(err)
			}
			if tc.par > 0 && out[0].Windows == 0 {
				t.Fatal("parallel engine did not engage")
			}
		}
		if tc.cfg.Buses > 0 && r.stats.MaxPending < 2 {
			t.Fatal("contended case queued no transfer")
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("par=%d buses=%d: warm single-config SimulateBatch allocates %.1f/run, budget 0",
				tc.par, tc.cfg.Buses, allocs)
		}
	}
}

// TestArenaStaysAtPeak is the leak guard on transfer recycling: transfers
// a run leaves out — every transfer of a parallel run, which never
// recycles mid-run, and the halves and requests a deadlock strands — must
// come back at the next reset, and requests no Wait consumes must not pin
// their transfers. Over many runs one replayer's arena and free list never
// grow past the first run's peak, on either engine.
func TestArenaStaysAtPeak(t *testing.T) {
	unwaited := trace.NewSet("unwaited", "original", 2, 1000)
	unwaited.Traces[0].Append(trace.ISend(1, 0, 64, 1), trace.IRecv(1, 1, 64, 2), trace.Burst(500))
	unwaited.Traces[1].Append(trace.Burst(100), trace.Recv(0, 0, 64), trace.Send(0, 1, 64))

	// Both ranks open with a rendezvous send the other never receives in
	// time; rank 0's request and the pending halves are stranded.
	const big = 1 << 20
	deadlock := trace.NewSet("deadlock", "original", 2, 1000)
	deadlock.Traces[0].Append(trace.ISend(1, 2, big, 7), trace.Send(1, 0, big), trace.Recv(1, 1, big), trace.Wait(7))
	deadlock.Traces[1].Append(trace.Send(0, 1, big), trace.Recv(0, 0, big), trace.Recv(0, 2, big))

	for _, tc := range []struct {
		ts      *trace.Set
		par     int
		wantErr bool
	}{
		{unwaited, 0, false},
		{unwaited, 4, false},
		{deadlock, 0, true},
		{deadlock, 4, true},
	} {
		cfg := testConfig()
		cfg.EagerThreshold = 0
		if tc.par > 0 {
			cfg.Buses, cfg.InLinks, cfg.OutLinks = 0, 0, 0
		}
		cfgs := []machine.Config{cfg}
		out := make([]Summary, 1)
		r := newReplayer()
		r.parallel, r.parThreshold = tc.par, 2
		peak, freeCap := -1, -1
		for run := 0; run < 1000; run++ {
			_, err := r.SimulateBatch(tc.ts, cfgs, out)
			if (err != nil) != tc.wantErr {
				t.Fatalf("%s par=%d run %d: err = %v, want error %v", tc.ts.Name, tc.par, run, err, tc.wantErr)
			}
			if !tc.wantErr && tc.par > 0 && out[0].Windows == 0 {
				t.Fatalf("%s: parallel engine did not engage", tc.ts.Name)
			}
			if run == 0 {
				peak = len(r.arena.all)
				if peak == 0 {
					t.Fatalf("%s par=%d: the run made no transfers", tc.ts.Name, tc.par)
				}
			}
			if run == 1 {
				freeCap = cap(r.arena.free) // the first reclaim sizes it
			}
			if n, f := len(r.arena.all), len(r.arena.free); n != peak || f > peak {
				t.Fatalf("%s par=%d run %d: arena %d, free list %d, want both at most the first run's peak %d",
					tc.ts.Name, tc.par, run, n, f, peak)
			}
			if run > 1 && cap(r.arena.free) != freeCap {
				t.Fatalf("%s par=%d run %d: free list capacity %d, was %d after the first reclaim",
					tc.ts.Name, tc.par, run, cap(r.arena.free), freeCap)
			}
		}
	}
}

// BenchmarkReplayerReuse measures the steady-state replay hot path without
// the pooled wrapper: the number every sweep point pays after warm-up.
func BenchmarkReplayerReuse(b *testing.B) {
	ts := mixedSet()
	cfg := testConfig()
	r := newReplayer()
	if _, err := r.Simulate(ts, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Simulate(ts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
