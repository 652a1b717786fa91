package sweep

import (
	"bytes"
	"reflect"
	"runtime"
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

// TestRunnerPicksReplayEngine: the runner picks the replay engine from the
// core count. At every GOMAXPROCS a contention-free 32-rank grid renders
// byte-identically in every format, and it runs on the window engine
// exactly when there are two execution slots; a contended platform
// (machine.Default) always replays sequentially.
func TestRunnerPicksReplayEngine(t *testing.T) {
	g := batchGrid()
	g.Ranks = []int{32}
	free := machine.Default()
	free.InLinks, free.OutLinks = 0, 0
	contended := g
	contended.Buses = nil

	run := func(base machine.Config, g Grid) ([]Result, Counters) {
		t.Helper()
		r := NewRunner(base)
		r.Size, r.Iters = 512, 2
		res, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		return res, r.Stats()
	}
	render := func(res []Result) map[Format]string {
		out := map[Format]string{}
		for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
			var b bytes.Buffer
			if err := Write(&b, f, res, false); err != nil {
				t.Fatal(err)
			}
			out[f] = b.String()
		}
		return out
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref map[Format]string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, st := run(free, g)
		got := render(res)
		if ref == nil {
			ref = got
		}
		for f, want := range ref {
			if got[f] != want {
				t.Errorf("GOMAXPROCS=%d: format %v diverges from GOMAXPROCS=1", procs, f)
			}
		}
		if par := st.ParallelWindows > 0; par != (procs >= 2) {
			t.Errorf("GOMAXPROCS=%d: contention-free grid ran %d parallel windows", procs, st.ParallelWindows)
		}
		if _, st := run(machine.Default(), contended); st.ParallelWindows != 0 {
			t.Errorf("GOMAXPROCS=%d: contended grid ran %d parallel windows", procs, st.ParallelWindows)
		}
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
