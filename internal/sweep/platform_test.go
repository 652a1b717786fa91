package sweep

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/units"
)

func TestGridPlatformAxesSizeAndOrder(t *testing.T) {
	g := Grid{
		Apps:      []string{"pingpong"},
		Latencies: []units.Duration{5 * units.Microsecond, 50 * units.Microsecond},
		Buses:     []int{1, 8},
		Chunks:    []int{4, 8},
	}
	if got := g.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	pts := g.Expand()
	if len(pts) != 8 {
		t.Fatalf("Expand returned %d points", len(pts))
	}
	// Platform axes nest between bandwidths and chunks: latency outermost
	// of the two, then buses, then chunks innermost.
	if pts[0].Platform.Latency != 5*units.Microsecond || pts[4].Platform.Latency != 50*units.Microsecond {
		t.Fatalf("latency axis not outermost: %+v", pts)
	}
	if pts[0].Platform.Buses != 1 || pts[2].Platform.Buses != 8 {
		t.Fatalf("buses axis out of order: %+v", pts)
	}
	if pts[0].Chunks != 4 || pts[1].Chunks != 8 {
		t.Fatalf("chunk axis not innermost: %+v", pts)
	}
	for _, p := range pts {
		if !p.Platform.LatencySet || !p.Platform.BusesSet {
			t.Fatalf("swept axes must be marked set: %+v", p.Platform)
		}
		if p.Platform.RanksPerNodeSet || p.Platform.EagerSet || p.Platform.CollectiveSet {
			t.Fatalf("unswept axes must stay unset: %+v", p.Platform)
		}
	}
}

func TestGridWithoutPlatformAxesHasZeroOverlay(t *testing.T) {
	pts := Grid{Apps: []string{"pingpong"}}.Expand()
	if len(pts) != 1 || !pts[0].Platform.IsZero() {
		t.Fatalf("grid without platform axes must expand to zero overlays: %+v", pts)
	}
}

func TestGridPlatformValidation(t *testing.T) {
	base := Grid{Apps: []string{"pingpong"}}
	bad := []Grid{
		func() Grid { g := base; g.Latencies = []units.Duration{-1}; return g }(),
		func() Grid { g := base; g.Buses = []int{-1}; return g }(),
		func() Grid { g := base; g.RanksPerNode = []int{0}; return g }(),
		func() Grid { g := base; g.Collectives = []machine.CollectiveModel{99}; return g }(),
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %d: expected validation error", i)
		}
	}
	ok := base
	ok.Latencies = []units.Duration{0}
	ok.Buses = []int{0}
	ok.RanksPerNode = []int{1}
	ok.EagerThresholds = []units.Bytes{-1, 0, 32 * units.KB}
	ok.Collectives = []machine.CollectiveModel{machine.CollLog, machine.CollLinear}
	if err := ok.Validate(); err != nil {
		t.Errorf("boundary values must validate: %v", err)
	}
}

func TestPointStringOverlay(t *testing.T) {
	p := Point{App: "bt", Ranks: 4, Bandwidth: 256 * units.MBPerSec, Chunks: 8}
	if got := p.String(); strings.Contains(got, "=") {
		t.Fatalf("zero overlay must not add labels: %q", got)
	}
	p.Platform = PlatformOverlay{
		Latency: 5 * units.Microsecond, LatencySet: true,
		Buses: 4, BusesSet: true,
		RanksPerNode: 2, RanksPerNodeSet: true,
		EagerThreshold: 32 * units.KB, EagerSet: true,
		Collective: machine.CollLinear, CollectiveSet: true,
	}
	s := p.String()
	for _, frag := range []string{"L=5.000us", "buses=4", "rpn=2", "eager=32KB", "coll=linear"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Point.String() = %q missing %q", s, frag)
		}
	}
}

// TestPlatformAxesShareOneTrace is the platform-axis caching contract: the
// platform axes change only the replay, so a grid sweeping them performs
// exactly one instrumented run per (app, ranks, chunks) workload.
func TestPlatformAxesShareOneTrace(t *testing.T) {
	dir := t.TempDir()
	g := Grid{
		Apps:        []string{"pingpong"},
		Latencies:   []units.Duration{5 * units.Microsecond, 50 * units.Microsecond},
		Buses:       []int{1, 8},
		Collectives: []machine.CollectiveModel{machine.CollLog, machine.CollLinear},
	}
	cold := newScaleoutRunner(t)
	cold.Cache = &TraceCache{Dir: dir}
	coldResults, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	points := int64(g.Size()) // 8 platform points, one workload
	if s := cold.Stats(); s.Traces != 1 || s.TraceCacheHits != 0 {
		t.Fatalf("cold platform-axes sweep: %+v, want exactly 1 instrumented run", s)
	} else if s.Replays != 2*points || s.ReplayMemoHits != 0 {
		// Every platform point is a distinct machine config, so nothing
		// memoizes: exactly two replays (original + overlap) per point.
		t.Fatalf("cold platform-axes sweep: %+v, want %d replays and 0 memo hits", s, 2*points)
	}

	warm := newScaleoutRunner(t)
	warm.Cache = &TraceCache{Dir: dir}
	warmResults, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Traces != 0 || s.TraceCacheHits != 1 {
		t.Fatalf("warm platform-axes sweep: %+v, want 0 instrumented runs, 1 cache hit", s)
	}
	var a, b bytes.Buffer
	if err := Write(&a, FormatCSV, coldResults, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, FormatCSV, warmResults, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("warm platform-axes results differ from cold run")
	}
}

// TestPlatformAxesChangeReplays checks the overlay actually reaches the
// machine model: latency slows the original execution monotonically, and
// packing all ranks on one SMP node (rpn axis) can only help, since local
// transfers bypass latency, links and buses.
func TestPlatformAxesChangeReplays(t *testing.T) {
	r := newScaleoutRunner(t)
	res, err := r.Run(Grid{
		Apps:      []string{"pingpong"},
		Latencies: []units.Duration{5 * units.Microsecond, 500 * units.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].TOriginal >= res[1].TOriginal {
		t.Errorf("100x latency did not slow the replay: %v vs %v", res[0].TOriginal, res[1].TOriginal)
	}

	r = newScaleoutRunner(t)
	res, err = r.Run(Grid{
		Apps:         []string{"pingpong"},
		RanksPerNode: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].TOriginal > res[0].TOriginal {
		t.Errorf("rpn=2 (all local) slower than rpn=1: %v vs %v", res[1].TOriginal, res[0].TOriginal)
	}
}

// TestCollectivesAxis: on an app with allreduces (cg), the linear
// collective model costs at least as much as the log-tree model.
func TestCollectivesAxis(t *testing.T) {
	r := NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 1
	res, err := r.Run(Grid{
		Apps:        []string{"cg"},
		Ranks:       []int{4},
		Collectives: []machine.CollectiveModel{machine.CollLog, machine.CollLinear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].TOriginal < res[0].TOriginal {
		t.Errorf("linear collectives faster than log: %v vs %v", res[1].TOriginal, res[0].TOriginal)
	}
	if res[1].TOriginal == res[0].TOriginal {
		t.Errorf("collective model change had no effect on an allreduce-heavy app")
	}
}

// TestEagerAxis: forcing every message through rendezvous (threshold 0)
// cannot beat making every message eager (negative threshold), since
// rendezvous only adds synchronization.
func TestEagerAxis(t *testing.T) {
	r := newScaleoutRunner(t)
	res, err := r.Run(Grid{
		Apps:            []string{"pingpong"},
		EagerThresholds: []units.Bytes{-1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].TOriginal > res[1].TOriginal {
		t.Errorf("all-eager slower than all-rendezvous: %v vs %v", res[0].TOriginal, res[1].TOriginal)
	}
}

func TestWriterDynamicColumns(t *testing.T) {
	r := newScaleoutRunner(t)
	plain, err := r.Run(Grid{Apps: []string{"pingpong"}})
	if err != nil {
		t.Fatal(err)
	}
	var csvPlain bytes.Buffer
	if err := Write(&csvPlain, FormatCSV, plain, false); err != nil {
		t.Fatal(err)
	}
	// The exact pre-platform-axis header: dynamic columns must not leak
	// into grids that do not sweep them.
	wantHeader := "app,ranks,bandwidth_bytes_per_sec,chunks,mechanisms,pattern,t_original_ns,t_overlap_ns,speedup,blocked_fraction,des_steps"
	if got := strings.SplitN(csvPlain.String(), "\n", 2)[0]; got != wantHeader {
		t.Errorf("plain CSV header = %q, want %q", got, wantHeader)
	}

	r = newScaleoutRunner(t)
	swept, err := r.Run(Grid{
		Apps:      []string{"pingpong"},
		Latencies: []units.Duration{5 * units.Microsecond},
		Buses:     []int{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var csvSwept bytes.Buffer
	if err := Write(&csvSwept, FormatCSV, swept, false); err != nil {
		t.Fatal(err)
	}
	wantSwept := "app,ranks,bandwidth_bytes_per_sec,latency_ns,buses,chunks,mechanisms,pattern,t_original_ns,t_overlap_ns,speedup,blocked_fraction,des_steps"
	if got := strings.SplitN(csvSwept.String(), "\n", 2)[0]; got != wantSwept {
		t.Errorf("swept CSV header = %q, want %q", got, wantSwept)
	}
	if !strings.Contains(csvSwept.String(), ",5000,4,") {
		t.Errorf("swept CSV rows missing exact axis values:\n%s", csvSwept.String())
	}

	var tbl bytes.Buffer
	if err := Write(&tbl, FormatTable, swept, false); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"latency", "buses", "5.000us"} {
		if !strings.Contains(tbl.String(), frag) {
			t.Errorf("table missing %q:\n%s", frag, tbl.String())
		}
	}

	var js bytes.Buffer
	if err := Write(&js, FormatJSON, swept, false); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"latency_ns": 5000`, `"buses": 4`} {
		if !strings.Contains(js.String(), frag) {
			t.Errorf("JSON missing %q:\n%s", frag, js.String())
		}
	}
	var jsPlain bytes.Buffer
	if err := Write(&jsPlain, FormatJSON, plain, false); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"latency_ns", "buses", "ranks_per_node", "eager_threshold_bytes", "collective"} {
		if strings.Contains(jsPlain.String(), frag) {
			t.Errorf("plain JSON leaked dynamic field %q", frag)
		}
	}
}

func TestEachContextDeliversEveryResult(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var emitted []int // emit is serialized, so appends need no lock
		err := EachContext(context.Background(), Engine{Workers: workers}, 20,
			func(i int) (int, error) { return i * i, nil },
			func(i, v int) error {
				if v != i*i {
					t.Errorf("emit(%d, %d): value mismatch", i, v)
				}
				emitted = append(emitted, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != 20 {
			t.Fatalf("workers=%d: %d emits, want 20", workers, len(emitted))
		}
		seen := map[int]bool{}
		for _, i := range emitted {
			if seen[i] {
				t.Fatalf("workers=%d: index %d emitted twice", workers, i)
			}
			seen[i] = true
		}
	}
}

// TestEachContextEmitsFinishedWorkOnCancel: points that completed before
// (or while) the context is cancelled still reach emit, even though the
// run reports the cancellation — the "SIGINT flushes what finished"
// contract of the CLI's -stream flag.
func TestEachContextEmitsFinishedWorkOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var emitted []int
	err := EachContext(ctx, Engine{Workers: 1}, 100,
		func(i int) (int, error) {
			if i == 3 {
				cancel() // cancel mid-job: this job still finishes and emits
			}
			return i, nil
		},
		func(i, v int) error { emitted = append(emitted, i); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(emitted) != 4 {
		t.Fatalf("emitted %v, want the 4 finished jobs [0 1 2 3]", emitted)
	}
}

func TestRunnerStreamMatchesOrderedResults(t *testing.T) {
	g := scaleoutGrid()
	results, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	r := newScaleoutRunner(t)
	r.Engine = Engine{Workers: 4}
	got := map[int]Result{}
	err = r.RunSinkContext(context.Background(), g, sinkFunc(func(index int, res Result) error {
		if _, dup := got[index]; dup {
			t.Errorf("point %d streamed twice", index)
		}
		got[index] = res
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(results) {
		t.Fatalf("streamed %d of %d results", len(got), len(results))
	}
	for i, res := range results {
		if got[i] != res {
			t.Errorf("streamed result %d differs from ordered result", i)
		}
	}
}

func TestRunnerIndicesStreamReportsGridIndices(t *testing.T) {
	g := scaleoutGrid()
	sh := Shard{K: 1, N: 2}
	indices := sh.Indices(g.Size())
	r := newScaleoutRunner(t)
	var streamed []int
	err := r.RunIndicesSinkContext(context.Background(), g, indices, sinkFunc(func(index int, res Result) error {
		streamed = append(streamed, index)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(indices) {
		t.Fatalf("streamed %d points, want %d", len(streamed), len(indices))
	}
	own := map[int]bool{}
	for _, i := range indices {
		own[i] = true
	}
	for _, i := range streamed {
		if !own[i] {
			t.Errorf("streamed grid index %d not in shard %s", i, sh)
		}
	}
}
