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
