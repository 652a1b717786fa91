package sweep

import (
	"os"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/units"
)

// TestReplayKeyHoldsProblemScale: one Runner serving sweep3d at two
// iteration counts and two sizes, with the same ranks and platform, must
// replay each workload on its own. A replay key without size or iters
// would hand the second workload the first one's memoized total.
func TestReplayKeyHoldsProblemScale(t *testing.T) {
	r := NewRunner(machine.Default())
	m := machine.Default().WithBandwidth(256 * units.MBPerSec)
	totals := map[units.Time]apps.Config{}
	for _, cfg := range []apps.Config{
		{Ranks: 4, Size: 256, Iterations: 1},
		{Ranks: 4, Size: 256, Iterations: 2},
		{Ranks: 4, Size: 512, Iterations: 1},
	} {
		w, err := r.Workload("sweep3d", cfg, DefaultChunks)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Replay(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := totals[res.Total]; dup {
			t.Errorf("sweep3d %+v and %+v replay to the same total %v", prev, cfg, res.Total)
		}
		totals[res.Total] = cfg
	}
	if s := r.Stats(); s.Traces != 3 || s.Replays != 3 || s.ReplayMemoHits != 0 {
		t.Errorf("work = %+v, want 3 traces, 3 replays and no memo hits", s)
	}
}

// TestReplayKeyHoldsTracedChunks: an overlapped variant built at 16 chunks
// from a trace profiled at 8 is not the c16 variant of a trace profiled at
// 16, so the two replay separately, while the original trace — identical
// across profiling granularities — replays once for both. Only the variant
// whose chunk count matches its trace's reaches the replay store, whose
// key cannot tell the two apart.
func TestReplayKeyHoldsTracedChunks(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(machine.Default())
	r.Store = &replaystore.Store{Dir: dir}
	m := machine.Default().WithBandwidth(128 * units.MBPerSec)
	cfg := apps.Config{Ranks: 4, Size: 256, Iterations: 1}
	opts := overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal, Chunks: 16}
	for _, chunks := range []int{8, 16} {
		w, err := r.Workload("sweep3d", cfg, chunks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(nil, m); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Replay(&opts, m); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.Stats(); s.Replays != 3 || s.ReplayMemoHits != 1 {
		t.Errorf("work = %+v, want 3 replays (one original, two c16 variants) and 1 memo hit", s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("replay store holds %d entries, want 2 (the original and the c16 variant of the c16 trace)", len(entries))
	}
}
