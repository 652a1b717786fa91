package sweep

import (
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/units"
)

// batchGrid is a platform-axis-only grid: one workload, one variant, three
// platforms. Buses is pinned to 0 so the platforms are contention-free —
// the domain the parallel engine targets.
func batchGrid() Grid {
	return Grid{
		Apps:      []string{"ring"},
		Ranks:     []int{16},
		Buses:     []int{0},
		Latencies: []units.Duration{5 * units.Microsecond, 20 * units.Microsecond, 50 * units.Microsecond},
	}
}

// TestBatchPrefillWarmRerun: a second identical sweep on the same runner
// must be answered entirely from the memo — no trace and no replay
// happens twice.
func TestBatchPrefillWarmRerun(t *testing.T) {
	g := batchGrid()
	r := NewRunner(machine.Default())
	first, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	second, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("warm rerun diverges")
	}
	d := r.Stats().Sub(before)
	if d.Replays != 0 || d.Traces != 0 {
		t.Fatalf("warm rerun did work: %+v", d)
	}
	if d.ReplayMemoHits == 0 {
		t.Fatalf("warm rerun took no memo hits: %+v", d)
	}
}

// TestBatchPrefillParallelWindows: with ReplayPar set, the memo fills run
// on the parallel engine and the runner accounts the window rounds. The
// results must still match a sequential runner exactly.
func TestBatchPrefillParallelWindows(t *testing.T) {
	g := batchGrid()
	// The parallel engine requires a fully contention-free platform: the
	// grid pins Buses to 0 but per-node link limits come from the base.
	base := machine.Default()
	base.InLinks, base.OutLinks = 0, 0
	plain := NewRunner(base)
	want, err := plain.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	par := NewRunner(base)
	par.ReplayPar = 4
	got, err := par.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel sweep diverges from sequential")
	}
	st := par.Stats()
	if st.ParallelWindows == 0 {
		t.Fatal("ReplayPar runner executed no parallel windows")
	}
	if plain.Stats().ParallelWindows != 0 {
		t.Fatal("sequential runner reported parallel windows")
	}
}

// TestBatchPrefillShardPath: a run over a subset of the expanded indices
// (the shard path) agrees with the unsharded run point for point.
func TestBatchPrefillShardPath(t *testing.T) {
	g := batchGrid()
	want, err := NewRunner(machine.Default()).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runIndices(NewRunner(machine.Default()), g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[1], want[2]) {
		t.Fatal("sharded results diverge from unsharded")
	}
}

// TestRunSinkStreamsBeforeAllReplays: replays run on the workers, point by
// point, so with one worker the first result reaches the sink before the
// sweep's later replays have started.
func TestRunSinkStreamsBeforeAllReplays(t *testing.T) {
	r := NewRunner(machine.Default())
	r.Engine = Engine{Workers: 1}
	first := int64(-1)
	err := r.RunSink(batchGrid(), sinkFunc(func(int, Result) error {
		if first < 0 {
			first = r.Stats().Replays
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if total := r.Stats().Replays; first < 0 || first >= total {
		t.Fatalf("first result arrived after %d of %d replays, want before the last", first, total)
	}
}
