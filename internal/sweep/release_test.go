package sweep

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// variantTracker counts the overlapped variants the memo fills replay
// and, through a cleanup attached to each, those since collected.
type variantTracker struct {
	registered, collected atomic.Int64
}

// trackVariants swaps the memo fills' replay for one that feeds a
// variantTracker, until the test ends.
func trackVariants(t *testing.T) *variantTracker {
	orig := simulate
	t.Cleanup(func() { simulate = orig })
	vt := &variantTracker{}
	simulate = func(ts *trace.Set, cfgs []machine.Config, out []replay.Summary, par int) (int, error) {
		if ts.Variant != "original" {
			vt.registered.Add(1)
			runtime.AddCleanup(ts, func(n *atomic.Int64) { n.Add(1) }, &vt.collected)
		}
		return orig(ts, cfgs, out, par)
	}
	return vt
}

// waitCollected fails the test unless every variant replayed so far is
// collected within a few seconds of garbage collection.
func (vt *variantTracker) waitCollected(t *testing.T) {
	t.Helper()
	if vt.registered.Load() == 0 {
		t.Fatal("no variant was replayed")
	}
	for deadline := time.Now().Add(5 * time.Second); vt.collected.Load() < vt.registered.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d replayed variants are still reachable after the run",
				vt.registered.Load()-vt.collected.Load(), vt.registered.Load())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// releaseGrid is two apps, each at two chunk counts, with two mechanisms
// and two patterns: eight variants per app, each replayed on two
// bandwidths.
func releaseGrid() Grid {
	return Grid{
		Apps:       []string{"pingpong", "ring"},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, units.GBPerSec},
		Chunks:     []int{4, 8},
		Mechanisms: []overlap.Mechanism{overlap.BothMechanisms, overlap.EarlySend},
		Patterns:   []overlap.Pattern{overlap.PatternReal, overlap.PatternLinear},
	}
}

func releaseRunner(workers int) *Runner {
	r := NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 1
	r.Engine = Engine{Workers: workers}
	return r
}

// csvOf renders results as the CSV bytes the CLI would print.
func csvOf(t *testing.T, rs []Result, approx bool) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Write(&b, FormatCSV, rs, approx); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// assertNothingPending fails unless no run holds a variant any more.
func assertNothingPending(t *testing.T, r *Runner) {
	t.Helper()
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	if len(r.pending) != 0 {
		t.Errorf("%d variants still pending after every run returned: %v", len(r.pending), r.pending)
	}
}

// TestRunReleasesVariants: once a run of a two-app grid returns, every
// variant it built is unreachable, while the workloads stay memoized —
// Runner.Workload hands back the same profiled sets without tracing.
func TestRunReleasesVariants(t *testing.T) {
	vt := trackVariants(t)
	r := releaseRunner(4)
	g := releaseGrid()
	workload := func(app string, chunks int) *Workload {
		t.Helper()
		w, err := r.Workload(app, apps.Config{Size: r.Size, Iterations: r.Iters}, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	profiled := map[*overlap.ProfiledSet]bool{}
	for _, app := range g.Apps {
		for _, chunks := range g.Chunks {
			profiled[workload(app, chunks).Study.Profiled] = true
		}
	}
	traces := r.Stats().Traces
	if _, err := r.Run(g); err != nil {
		t.Fatal(err)
	}
	if got, want := vt.registered.Load(), int64(2*2*2*2*2); got != want {
		t.Fatalf("replayed %d variants, want %d (2 apps x 2 chunks x 2 mechanisms x 2 patterns x 2 bandwidths)", got, want)
	}
	assertNothingPending(t, r)
	vt.waitCollected(t)

	for _, app := range g.Apps {
		for _, chunks := range g.Chunks {
			if !profiled[workload(app, chunks).Study.Profiled] {
				t.Errorf("%s c%d: Workload returned another profiled set after the run", app, chunks)
			}
		}
	}
	if d := r.Stats().Traces - traces; d != 0 {
		t.Errorf("the run and the Workload calls after it traced %d times, want 0", d)
	}
}

// TestReleaseRerunIdentical: a second run of the same grid on the same
// Runner finds every replay in the memo, so it transforms, traces and
// replays nothing, and renders byte-identically; nothing stays pending.
func TestReleaseRerunIdentical(t *testing.T) {
	r := releaseRunner(3)
	g := releaseGrid()
	first, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	vt := trackVariants(t)
	builds := countBuilds(t)
	before := r.Stats()
	second, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.Stats().Sub(before); d.Traces != 0 || d.Replays != 0 || d.ReplayMemoHits != int64(2*g.Size()) {
		t.Errorf("rerun work = %+v, want 0 traces, 0 replays and %d memo hits", d, 2*g.Size())
	}
	if !bytes.Equal(csvOf(t, first, false), csvOf(t, second, false)) {
		t.Error("rerun on the same Runner renders differently")
	}
	if vt.registered.Load() != 0 {
		t.Errorf("rerun replayed %d variants, want none", vt.registered.Load())
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("rerun transformed %d variants, want none", n)
	}
	assertNothingPending(t, r)
}

// TestApproxReleasesVariants: the surrogate's family path — member point
// jobs that only wait for their family — releases every variant too, and
// its output matches a fresh Runner's at another worker count.
func TestApproxReleasesVariants(t *testing.T) {
	g := denseGrid()
	g.Mechanisms = []overlap.Mechanism{overlap.BothMechanisms, overlap.EarlySend}
	vt := trackVariants(t)
	r := denseRunner(true)
	got, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().PredictedPoints == 0 {
		t.Fatal("the grid predicted no point: the family path did not run")
	}
	assertNothingPending(t, r)
	vt.waitCollected(t)

	fresh := denseRunner(true)
	fresh.Engine = Engine{Workers: 1}
	want, err := fresh.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, got, true), csvOf(t, want, true)) {
		t.Error("approx run differs from a fresh single-worker Runner")
	}
	again, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, again, true), csvOf(t, want, true)) {
		t.Error("approx rerun on the releasing Runner differs")
	}
}

// TestReleaseAfterCancelledRun: a run cancelled after its first delivered
// point lets go of every variant its unrun points held, and the next run
// on that Runner is still correct.
func TestReleaseAfterCancelledRun(t *testing.T) {
	g := releaseGrid()
	want, err := releaseRunner(1).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	r := releaseRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = r.RunSinkContext(ctx, g, sinkFunc(func(int, Result) error { cancel(); return nil }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertNothingPending(t, r)
	got, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csvOf(t, got, false), csvOf(t, want, false)) {
		t.Error("run after a cancelled one differs from a fresh Runner")
	}
	assertNothingPending(t, r)
}

// TestReleaseConcurrentRuns: runs sharing variants on one Runner — the
// same grid twice and a one-app slice of it — each produce a fresh
// Runner's output however their points interleave with the others'
// releases.
func TestReleaseConcurrentRuns(t *testing.T) {
	full := releaseGrid()
	part := full
	part.Apps = []string{"ring"}
	part.Bandwidths = full.Bandwidths[1:]
	grids := []Grid{full, full, part}
	want := make([][]byte, len(grids))
	for i, g := range grids {
		rs, err := releaseRunner(1).Run(g)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = csvOf(t, rs, false)
	}
	r := releaseRunner(2)
	got := make([][]Result, len(grids))
	errs := make([]error, len(grids))
	var wg sync.WaitGroup
	for i, g := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = r.Run(g)
		}()
	}
	wg.Wait()
	for i := range grids {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(csvOf(t, got[i], false), want[i]) {
			t.Errorf("concurrent run %d differs from a fresh Runner", i)
		}
	}
	assertNothingPending(t, r)
}

// TestRetainKeepsVariantsAcrossRuns: a grid run one four-point lease at a
// time, as a campaign worker runs it, transforms each variant once while
// the grid is retained; a lease that replays a variant an earlier lease
// built finds it still in the study. Releasing the grid then frees every
// variant.
func TestRetainKeepsVariantsAcrossRuns(t *testing.T) {
	g := releaseGrid()
	want, err := releaseRunner(1).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	vt := trackVariants(t)
	replayed := map[*trace.Set]bool{}
	var mu sync.Mutex
	inner := simulate
	simulate = func(ts *trace.Set, cfgs []machine.Config, out []replay.Summary, par int) (int, error) {
		if ts.Variant != "original" {
			mu.Lock()
			replayed[ts] = true
			mu.Unlock()
		}
		return inner(ts, cfgs, out, par)
	}

	r := releaseRunner(2)
	release := r.Retain(g)
	got := make([]Result, g.Size())
	for lo := 0; lo < g.Size(); lo += 4 {
		var indices []int
		for i := lo; i < min(lo+4, g.Size()); i++ {
			indices = append(indices, i)
		}
		err := r.RunIndicesSinkContext(context.Background(), g, indices,
			sinkFunc(func(i int, res Result) error { got[i] = res; return nil }))
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(csvOf(t, got, false), csvOf(t, want, false)) {
		t.Error("the leased run differs from a fresh Runner's")
	}

	variants := map[variantKey]bool{}
	for _, p := range g.Expand() {
		k := r.variantOf(&p)
		if variants[k] {
			continue
		}
		variants[k] = true
		w, err := r.Workload(k.pipe.app, k.pipe.cfg, k.pipe.chunks)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := w.Study.Variant(k.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !replayed[ts] {
			t.Errorf("%s c%d %s: the retained variant is not the one the leases replayed", k.pipe.app, k.pipe.chunks, ts.Variant)
		}
	}
	if len(replayed) != len(variants) {
		t.Errorf("the leases replayed %d variant sets for %d variants: a variant was transformed twice", len(replayed), len(variants))
	}

	clear(replayed)
	release()
	release()
	assertNothingPending(t, r)
	vt.waitCollected(t)
}
