package replay

import (
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// platformAxis builds n configs differing only in latency and bandwidth —
// the shape of a platform-axis sweep group, which is what SimulateBatch
// exists to accelerate.
func platformAxis(n int) []machine.Config {
	cfgs := make([]machine.Config, n)
	for i := range cfgs {
		c := testConfig()
		c.Latency = units.Duration(i+1) * units.Microsecond
		c.Bandwidth = units.Bandwidth(1e9 / (i + 1))
		cfgs[i] = c
	}
	return cfgs
}

// TestSimulateBatchMatchesSimulate pins the batch contract: every Summary
// field equals the corresponding Simulate output exactly, including the
// float Blocked fraction (same arithmetic, not approximately).
func TestSimulateBatchMatchesSimulate(t *testing.T) {
	for _, ts := range []*trace.Set{mixedSet(), pipelineSet(), haloSet(16, 3)} {
		cfgs := platformAxis(6)
		out := make([]Summary, len(cfgs))
		n, err := newReplayer().SimulateBatch(ts, cfgs, out)
		if err != nil {
			t.Fatalf("%s: %v", ts.Name, err)
		}
		if n != len(cfgs) {
			t.Fatalf("%s: completed %d/%d points", ts.Name, n, len(cfgs))
		}
		for i, cfg := range cfgs {
			want, err := Simulate(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := out[i]
			if got.Total != want.Total || got.Steps != want.Steps || got.Windows != want.Windows {
				t.Fatalf("%s point %d: summary %+v vs Simulate total=%v steps=%d windows=%d",
					ts.Name, i, got, want.Total, want.Steps, want.Windows)
			}
			if got.Blocked != want.MeanBlockedFraction() {
				t.Fatalf("%s point %d: Blocked = %v, want exactly %v",
					ts.Name, i, got.Blocked, want.MeanBlockedFraction())
			}
		}
	}
}

// TestSimulateBatchParallel: the batch loop composes with the parallel
// engine — eligible points engage it and still match sequential numbers.
func TestSimulateBatchParallel(t *testing.T) {
	ts := haloSet(16, 3)
	cfgs := platformAxis(4)
	out := make([]Summary, len(cfgs))
	if _, err := SimulateBatch(ts, cfgs, out, 4); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := Simulate(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Windows == 0 {
			t.Fatalf("point %d: parallel engine did not engage", i)
		}
		if out[i].Total != want.Total || out[i].Steps != want.Steps || out[i].Blocked != want.MeanBlockedFraction() {
			t.Fatalf("point %d: parallel batch summary %+v diverges from sequential", i, out[i])
		}
	}
}

// TestSimulateBatchStopsAtError: a bad config mid-batch stops the loop and
// reports the completed prefix; the leading summaries stay valid.
func TestSimulateBatchStopsAtError(t *testing.T) {
	ts := mixedSet()
	cfgs := platformAxis(4)
	cfgs[2].Nodes = -1 // fails Validate
	out := make([]Summary, len(cfgs))
	n, err := SimulateBatch(ts, cfgs, out, 0)
	if err == nil || n != 2 {
		t.Fatalf("n=%d err=%v, want 2 and a point-2 error", n, err)
	}
	want, _ := Simulate(ts, cfgs[1])
	if out[1].Total != want.Total {
		t.Fatal("prefix summary invalid after batch error")
	}
}

func TestSimulateBatchRejectsShortOut(t *testing.T) {
	if _, err := SimulateBatch(mixedSet(), platformAxis(3), make([]Summary, 2), 0); err == nil {
		t.Fatal("short out slice not rejected")
	}
}

// TestBatchWarmAllocs is the batch-path guard: once the replayer is warm a
// whole platform-axis batch must run nearly allocation-free — at most 8
// allocations per point, and in practice ~0 (the budget leaves room for
// map growth jitter only).
func TestBatchWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is pinned by the non-race run")
	}
	ts := mixedSet()
	cfgs := platformAxis(8)
	out := make([]Summary, len(cfgs))
	r := newReplayer()
	for i := 0; i < 3; i++ {
		if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
			t.Fatal(err)
		}
	})
	budget := 8.0 * float64(len(cfgs))
	if allocs > budget {
		t.Errorf("warm SimulateBatch allocates %.1f for %d points (budget %.0f, 8/point)",
			allocs, len(cfgs), budget)
	}
}

// BenchmarkReplayBatchWarm measures the per-point cost of a multi-config
// SimulateBatch on a warm replayer.
func BenchmarkReplayBatchWarm(b *testing.B) {
	ts := mixedSet()
	cfgs := platformAxis(16)
	out := make([]Summary, len(cfgs))
	r := newReplayer()
	if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
			b.Fatal(err)
		}
	}
}
