package sweep

import (
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/units"
)

// batchGrid is a platform-axis-only grid: one workload, one variant, three
// platforms. Buses is pinned to 0 so the platforms are contention-free —
// the domain both the batch path and the parallel engine target.
func batchGrid() Grid {
	return Grid{
		Apps:      []string{"ring"},
		Ranks:     []int{16},
		Buses:     []int{0},
		Latencies: []units.Duration{5 * units.Microsecond, 20 * units.Microsecond, 50 * units.Microsecond},
	}
}

// TestBatchPrefillMatchesUnbatched pins the tentpole's caching contract:
// routing a platform axis through the batched warm replayer changes no
// result and no counter except the BatchedReplays subset itself.
func TestBatchPrefillMatchesUnbatched(t *testing.T) {
	g := batchGrid()
	plain := NewRunner(machine.Default())
	plain.DisableBatch = true
	want, err := plain.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	batched := NewRunner(machine.Default())
	got, err := batched.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched sweep diverges from unbatched:\ngot:  %+v\nwant: %+v", got, want)
	}
	ps, bs := plain.Stats(), batched.Stats()
	if bs.BatchedReplays == 0 {
		t.Fatal("platform-axis grid did not engage the batch path")
	}
	if ps.BatchedReplays != 0 {
		t.Fatalf("DisableBatch runner reported %d batched replays", ps.BatchedReplays)
	}
	bs.BatchedReplays, bs.ParallelWindows = 0, 0
	ps.ParallelWindows = 0
	if bs != ps {
		t.Fatalf("batching changed the work accounting:\nbatched:   %+v\nunbatched: %+v", bs, ps)
	}
}

// TestBatchPrefillWarmRerun: a second identical sweep on the same runner
// must be answered entirely from the memo — prefill included, no replay
// and no batch work happens twice.
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
	if d.Replays != 0 || d.BatchedReplays != 0 || d.Traces != 0 {
		t.Fatalf("warm rerun did work: %+v", d)
	}
	if d.ReplayMemoHits == 0 {
		t.Fatalf("warm rerun took no memo hits: %+v", d)
	}
}

// TestBatchPrefillParallelWindows: with ReplayPar set, the batched replays
// run on the parallel engine and the runner accounts the window rounds.
// The results must still match a sequential, unbatched runner exactly.
func TestBatchPrefillParallelWindows(t *testing.T) {
	g := batchGrid()
	// The parallel engine requires a fully contention-free platform: the
	// grid pins Buses to 0 but per-node link limits come from the base.
	base := machine.Default()
	base.InLinks, base.OutLinks = 0, 0
	plain := NewRunner(base)
	plain.DisableBatch = true
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
		t.Fatal("parallel batched sweep diverges from sequential unbatched")
	}
	st := par.Stats()
	if st.ParallelWindows == 0 {
		t.Fatal("ReplayPar runner executed no parallel windows")
	}
	if plain.Stats().ParallelWindows != 0 {
		t.Fatal("sequential runner reported parallel windows")
	}
}

// TestBatchPrefillShardPath: the shard entry points prefill only their own
// points, and sharded results still agree with the unsharded run.
func TestBatchPrefillShardPath(t *testing.T) {
	g := batchGrid()
	want, err := func() ([]Result, error) {
		r := NewRunner(machine.Default())
		r.DisableBatch = true
		return r.Run(g)
	}()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(machine.Default())
	got, err := runIndices(r, g, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want[0]) || !reflect.DeepEqual(got[1], want[2]) {
		t.Fatal("sharded batched results diverge from unsharded")
	}
	if r.Stats().BatchedReplays == 0 {
		t.Fatal("shard run with two platform points did not batch")
	}
}
