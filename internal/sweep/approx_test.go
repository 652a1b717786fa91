package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/sweep/surrogate"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// denseGrid is the acceptance-criterion shape: a >= 512-point dense
// bandwidth x latency surface over one workload.
func denseGrid() Grid {
	bws := make([]units.Bandwidth, 32)
	bw := 8 * units.MBPerSec
	for i := range bws {
		bws[i] = bw
		bw = units.Bandwidth(float64(bw) * 1.35)
	}
	lats := make([]units.Duration, 16)
	l := 2 * units.Microsecond
	for i := range lats {
		lats[i] = l
		l = units.Duration(float64(l) * 1.4)
	}
	return Grid{Apps: []string{"pingpong"}, Bandwidths: bws, Latencies: lats}
}

func denseRunner(approx bool) *Runner {
	r := NewRunner(machine.Default())
	r.Size = 512
	r.Iters = 2
	r.Engine = Engine{Workers: 4}
	r.Approx = approx
	return r
}

// TestApproxDenseGridBudgetAndAccuracy is the PR's acceptance criterion:
// on a 512-point dense bandwidth x latency grid the surrogate path does
// at most 25% of the exact mode's replays (counter-verified) while every
// result stays within the configured relative error bound.
func TestApproxDenseGridBudgetAndAccuracy(t *testing.T) {
	g := denseGrid()
	if g.Size() < 512 {
		t.Fatalf("grid has %d points, want >= 512", g.Size())
	}

	exact := denseRunner(false)
	want, err := exact.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	fast := denseRunner(true)
	got, err := fast.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}

	ec, fc := exact.Stats(), fast.Stats()
	if fc.Replays > ec.Replays/4 {
		t.Errorf("approx did %d replays, exact did %d: budget is 25%% (%d)",
			fc.Replays, ec.Replays, ec.Replays/4)
	}
	if fc.PredictedPoints == 0 {
		t.Error("no predicted points on a dense grid")
	}
	if fc.PredictedPoints+int64(countExact(got)) != int64(len(got)) {
		t.Errorf("predicted (%d) + exact (%d) != total (%d)",
			fc.PredictedPoints, countExact(got), len(got))
	}

	bound := fast.approxMaxErr()
	worst := 0.0
	for i := range got {
		if got[i].Point != want[i].Point {
			t.Fatalf("point %d mismatch: %v vs %v", i, got[i].Point, want[i].Point)
		}
		eo := surrogate.RelErr(float64(got[i].TOriginal), float64(want[i].TOriginal))
		ev := surrogate.RelErr(float64(got[i].TOverlap), float64(want[i].TOverlap))
		if e := math.Max(eo, ev); e > worst {
			worst = e
		}
		if !got[i].Approx && (got[i].TOriginal != want[i].TOriginal || got[i].TOverlap != want[i].TOverlap) {
			t.Errorf("point %d marked exact but differs from the exact run", i)
		}
	}
	if worst > bound {
		t.Errorf("max relative error %.4f exceeds bound %.4f", worst, bound)
	}
	t.Logf("replays: exact=%d approx=%d (%.1f%%), predicted=%d, spot=%d, demoted=%d, max rel err=%.5f",
		ec.Replays, fc.Replays, 100*float64(fc.Replays)/float64(ec.Replays),
		fc.PredictedPoints, fc.SpotCheckReplays, fc.DemotedFamilies, worst)
}

func countExact(rs []Result) int {
	n := 0
	for _, r := range rs {
		if !r.Approx {
			n++
		}
	}
	return n
}

// TestApproxOffIsExact pins the exactness contract: with Approx unset the
// planner contributes nothing (no counters, no Approx marks) and results
// are identical to a pre-feature runner's.
func TestApproxOffIsExact(t *testing.T) {
	g := Grid{Apps: []string{"pingpong"},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, 256 * units.MBPerSec}}
	r := NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 2
	if m := r.approxResults(g.Expand(), nil); m != nil {
		t.Fatalf("approxResults must be nil with Approx off, got %d entries", len(m))
	}
	res, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range res {
		if rr.Approx {
			t.Errorf("point %d marked approx in exact mode", i)
		}
	}
	c := r.Stats()
	if c.PredictedPoints != 0 || c.SpotCheckReplays != 0 || c.DemotedFamilies != 0 {
		t.Errorf("approx counters moved in exact mode: %+v", c)
	}
}

// TestApproxSparseGridFallsThrough: a grid with no dense numeric axis runs
// fully exact even with -approx on, and the output matches exact mode.
func TestApproxSparseGridFallsThrough(t *testing.T) {
	g := Grid{Apps: []string{"pingpong"},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, 256 * units.MBPerSec},
		Chunks:     []int{4, 8}}
	exact := NewRunner(machine.Default())
	exact.Size, exact.Iters = 256, 2
	want, err := exact.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	fast := NewRunner(machine.Default())
	fast.Size, fast.Iters = 256, 2
	fast.Approx = true
	got, err := fast.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs on a sparse grid: %+v vs %+v", i, got[i], want[i])
		}
	}
	if c := fast.Stats(); c.PredictedPoints != 0 {
		t.Errorf("sparse grid predicted %d points", c.PredictedPoints)
	}
}

// TestApproxDeterministicAcrossWorkers: the same grid yields byte-identical
// encodings (including Approx marks) for any worker count.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{Apps: []string{"pingpong"}, Bandwidths: denseGrid().Bandwidths}
	var ref []Result
	for _, workers := range []int{1, 3, 8} {
		r := denseRunner(true)
		r.Engine = Engine{Workers: workers}
		res, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref {
			if res[i] != ref[i] {
				t.Fatalf("workers=%d: point %d differs: %+v vs %+v", workers, i, res[i], ref[i])
			}
		}
	}
	var a, b bytes.Buffer
	if err := Write(&a, FormatCSV, ref, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, FormatCSV, ref, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV encoding not deterministic")
	}
}

// TestApproxPredictionsNeverPersisted: the replay store accumulates one
// entry per replay actually simulated — never one for a predicted point.
func TestApproxPredictionsNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	r := denseRunner(true)
	r.Store = &replaystore.Store{Dir: dir}
	g := Grid{Apps: []string{"pingpong"}, Bandwidths: denseGrid().Bandwidths}
	res, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	c := r.Stats()
	if c.PredictedPoints == 0 {
		t.Fatal("expected predictions on a 32-bandwidth axis")
	}
	entries, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayEntries := 0
	for _, e := range entries {
		if e.Kind == "replay" {
			replayEntries++
		}
	}
	if int64(replayEntries) != c.Replays {
		t.Errorf("store holds %d replay entries for %d replays — predictions must not be persisted",
			replayEntries, c.Replays)
	}
	if int64(replayEntries) >= int64(2*len(res)) {
		t.Errorf("store holds %d entries for %d points: the fast path persisted too much", replayEntries, len(res))
	}
}

// TestApproxDemotionRestoresExactness: a bound tighter than the risk
// estimator can resolve (nanosecond rounding noise sits above it) slips
// predictions past the planner that the spot checks then catch, demoting
// the family — and every emitted result is exact, bit-identical to the
// exact run. This is the gate's defense-in-depth role: the refinement
// planner avoids demotion when its estimate is trustworthy, so demotion
// fires exactly when the estimate is not.
func TestApproxDemotionRestoresExactness(t *testing.T) {
	g := Grid{Apps: []string{"pingpong"}, Bandwidths: denseGrid().Bandwidths}
	exact := denseRunner(false)
	want, err := exact.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	fast := denseRunner(true)
	fast.ApproxMaxErr = 1e-4 // below the estimator's resolution, above rounding noise
	fast.ApproxSpotCheck = 1 // gate every surviving prediction
	got, err := fast.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	c := fast.Stats()
	if c.DemotedFamilies == 0 {
		t.Skip("interpolation was bit-exact; cannot exercise demotion on this platform")
	}
	if c.PredictedPoints != 0 {
		t.Errorf("demoted run still predicted %d points", c.PredictedPoints)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs after demotion: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestApproxTightBoundSkipsPredictions: an impossible bound makes every
// segment untrustworthy, so the planner predicts nothing and the sweep
// degrades to fully exact results without demotion theatrics.
func TestApproxTightBoundSkipsPredictions(t *testing.T) {
	g := Grid{Apps: []string{"pingpong"}, Bandwidths: denseGrid().Bandwidths}
	exact := denseRunner(false)
	want, err := exact.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	fast := denseRunner(true)
	fast.ApproxMaxErr = 1e-12
	got, err := fast.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if c := fast.Stats(); c.PredictedPoints != 0 {
		t.Errorf("predicted %d points under an impossible bound", c.PredictedPoints)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// multiFamilyGrid is 2 apps x 12 bandwidths x 3 latencies: six bandwidth
// families, interleaved in expansion order (latency varies fastest).
func multiFamilyGrid() Grid {
	g := denseGrid()
	return Grid{Apps: []string{"pingpong", "ring"}, Bandwidths: g.Bandwidths[:12], Latencies: g.Latencies[:3]}
}

// approxCounters is the part of Counters the surrogate decides.
func approxCounters(c Counters) [4]int64 {
	return [4]int64{c.Replays, c.PredictedPoints, c.SpotCheckReplays, c.DemotedFamilies}
}

// TestApproxMultiFamilyDeterministicAcrossWorkers: with several families
// resolving concurrently on the pool, the results and the surrogate's
// decisions are the same for any worker count.
func TestApproxMultiFamilyDeterministicAcrossWorkers(t *testing.T) {
	g := multiFamilyGrid()
	var ref []Result
	var refC [4]int64
	for _, workers := range []int{1, 3, 8} {
		r := denseRunner(true)
		r.Engine = Engine{Workers: workers}
		res, err := r.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		c := approxCounters(r.Stats())
		if ref == nil {
			if c[1] == 0 {
				t.Fatal("no predicted points: the grid does not exercise the families")
			}
			ref, refC = res, c
			continue
		}
		if c != refC {
			t.Errorf("workers=%d: counters (replays, predicted, spot checks, demoted) %v, workers=1 %v", workers, c, refC)
		}
		for i := range ref {
			if res[i] != ref[i] {
				t.Fatalf("workers=%d: point %d differs: %+v vs %+v", workers, i, res[i], ref[i])
			}
		}
	}
}

// TestApproxFamilyStreamsBeforeLaterFamilies: a family's rows reach the
// sink as soon as its job resolves — with one worker, before the last
// family has replayed anything.
func TestApproxFamilyStreamsBeforeLaterFamilies(t *testing.T) {
	dg := denseGrid()
	lats := dg.Latencies[:3]
	g := Grid{Apps: []string{"pingpong"}, Bandwidths: dg.Bandwidths[:16], Latencies: lats}
	r := denseRunner(true)
	r.Engine = Engine{Workers: 1}

	// The replay count just before the last family's first replay.
	lastStart := int64(-1)
	orig := simulate
	t.Cleanup(func() { simulate = orig })
	simulate = func(ts *trace.Set, cfgs []machine.Config, out []replay.Summary, par int) (int, error) {
		if lastStart < 0 && cfgs[0].Latency == lats[2] {
			lastStart = r.Stats().Replays - 1
		}
		return orig(ts, cfgs, out, par)
	}

	var fam0 []int64 // replay count at each of family 0's predicted rows
	err := r.RunSink(g, sinkFunc(func(_ int, res Result) error {
		if res.Approx && res.Point.Platform.Latency == lats[0] {
			fam0 = append(fam0, r.Stats().Replays)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(fam0) == 0 || lastStart < 0 {
		t.Fatalf("family 0 predicted %d rows, last family started at replay %d", len(fam0), lastStart)
	}
	for _, n := range fam0 {
		if n > lastStart {
			t.Fatalf("a family-0 row arrived after %d replays; the last family started after %d", n, lastStart)
		}
	}
}

// TestApproxReplayErrorMatchesExact: a replay error inside a family
// abandons it, and the run fails with the same *JobError — same position
// in indices, same message — as with Approx off.
func TestApproxReplayErrorMatchesExact(t *testing.T) {
	g := multiFamilyGrid()
	bad := g.Bandwidths[len(g.Bandwidths)-1] // an endpoint: every family's anchor
	orig := simulate
	t.Cleanup(func() { simulate = orig })
	simulate = func(ts *trace.Set, cfgs []machine.Config, out []replay.Summary, par int) (int, error) {
		if cfgs[0].Bandwidth == bad {
			return 0, fmt.Errorf("injected failure at %v", bad)
		}
		return orig(ts, cfgs, out, par)
	}
	for _, workers := range []int{1, 4} {
		var want *JobError
		for _, approx := range []bool{false, true} {
			r := denseRunner(approx)
			r.Engine = Engine{Workers: workers}
			_, err := r.Run(g)
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("workers=%d approx=%v: err = %v, want a *JobError", workers, approx, err)
			}
			if !approx {
				want = je
				continue
			}
			if je.Index != want.Index || je.Error() != want.Error() {
				t.Errorf("workers=%d: approx error %q (index %d), exact %q (index %d)",
					workers, je, je.Index, want, want.Index)
			}
		}
	}
}

// TestApproxProgressCountsPoints: with families on the pool the engine's
// Progress still counts grid points, not jobs — total is the number of
// points the run covers and done climbs by one up to it.
func TestApproxProgressCountsPoints(t *testing.T) {
	g := multiFamilyGrid()
	all := make([]int, g.Size())
	for i := range all {
		all[i] = i
	}
	for _, workers := range []int{1, 4} {
		for _, indices := range [][]int{all, all[:g.Size()/2]} {
			var mu sync.Mutex
			var calls [][2]int
			r := denseRunner(true)
			r.Engine = Engine{Workers: workers, Progress: func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				calls = append(calls, [2]int{done, total})
			}}
			if err := r.RunIndicesSinkContext(context.Background(), g, indices, sinkFunc(func(int, Result) error { return nil })); err != nil {
				t.Fatal(err)
			}
			if r.Stats().PredictedPoints == 0 {
				t.Fatalf("workers=%d: no predictions; families did not run", workers)
			}
			if len(calls) != len(indices) {
				t.Fatalf("workers=%d: %d progress calls for %d points", workers, len(calls), len(indices))
			}
			for k, c := range calls {
				if c != [2]int{k + 1, len(indices)} {
					t.Fatalf("workers=%d: progress call %d is %v, want [%d %d]", workers, k, c, k+1, len(indices))
				}
			}
		}
	}
}
