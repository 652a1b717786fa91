package sweep

import (
	"math"
	"sort"

	"overlapsim/internal/analytic"
	"overlapsim/internal/sweep/surrogate"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// This file is the surrogate fast path (`-approx`). Before execution the
// runner partitions the expanded grid into interpolation families —
// points identical except along one numeric axis (bandwidth, latency, or
// the eager threshold as a monotone step axis) — and plans, without
// replaying anything, an anchor subset per family: the endpoints,
// log-spaced interior points, and the point nearest the overlap knee the
// analytic model predicts (IntermediateBandwidth / IntermediateLatency).
// Each family then runs as one job on the engine's worker pool, beside
// the exact-path points: it replays its anchors and predicts every other
// member by monotone piecewise interpolation of the anchor results, in
// the coordinate space where the replay physics is linear (time is affine
// in 1/bandwidth and in latency). An error-bound gate guards the output:
// a deterministic, seeded fraction of predicted points is spot-replayed,
// and a family whose observed relative error exceeds the bound is demoted
// to full replay — so every emitted result is either exact or within the
// bound as observed by its family's spot checks. Predicted results are
// marked (Result.Approx) and are never written to the replay memo or the
// persistent store; with Approx off this file contributes nothing and
// the runner is byte-identical to earlier releases.

// Defaults for the surrogate fast path's tuning knobs.
const (
	// DefaultApproxMaxErr is the error-bound gate: the maximum relative
	// error (on TOriginal and TOverlap) a spot check may observe before
	// the family is demoted to full replay.
	DefaultApproxMaxErr = 0.02
	// DefaultApproxSpotCheck is the fraction of predicted points per
	// family that are spot-replayed (always at least one).
	DefaultApproxSpotCheck = 0.05
	// minApproxFamily is the smallest family worth interpolating: below
	// it the anchor overhead cancels the savings and the variance of the
	// gate's single spot check is too high.
	minApproxFamily = 6
)

func (r *Runner) approxMaxErr() float64 {
	if r.ApproxMaxErr > 0 {
		return r.ApproxMaxErr
	}
	return DefaultApproxMaxErr
}

func (r *Runner) approxSpotCheck() float64 {
	if r.ApproxSpotCheck > 0 {
		return r.ApproxSpotCheck
	}
	return DefaultApproxSpotCheck
}

// approxAxis names the numeric axis a family interpolates along.
type approxAxis int

const (
	axisNone approxAxis = iota
	axisBandwidth
	axisLatency
	axisEager
)

func (a approxAxis) String() string {
	switch a {
	case axisBandwidth:
		return "bandwidth"
	case axisLatency:
		return "latency"
	case axisEager:
		return "eager"
	}
	return "none"
}

// axisEligible reports whether the point can join an interpolation family
// along the axis. Sentinel values stay exact: BaseBandwidth (keep base)
// and 0 (infinite) on the bandwidth axis, zero latency, and a negative
// eager threshold (all-eager) have no place on a monotone numeric scale.
func axisEligible(a approxAxis, p Point) bool {
	switch a {
	case axisBandwidth:
		return p.Bandwidth > 0
	case axisLatency:
		return p.Platform.LatencySet && p.Platform.Latency > 0
	case axisEager:
		return p.Platform.EagerSet && p.Platform.EagerThreshold >= 0
	}
	return false
}

// axisValue extracts the point's coordinate along the axis.
func axisValue(a approxAxis, p Point) float64 {
	switch a {
	case axisBandwidth:
		return float64(p.Bandwidth)
	case axisLatency:
		return float64(p.Platform.Latency)
	case axisEager:
		return float64(p.Platform.EagerThreshold)
	}
	return 0
}

// approxFamilyKey neutralizes the axis coordinate, so points that differ
// only along it share a key. The sentinels cannot collide with any
// eligible point's real value (eligibility requires bandwidth > 0,
// latency > 0, eager >= 0), and Point is comparable, so the key is usable
// directly as a map key.
func approxFamilyKey(a approxAxis, p Point) Point {
	switch a {
	case axisBandwidth:
		p.Bandwidth = -2
	case axisLatency:
		p.Platform.Latency = -1
	case axisEager:
		p.Platform.EagerThreshold = -1
	}
	return p
}

// normPoint applies the same chunk-count default runPoint applies, so
// family grouping and predicted results agree with the exact path.
func normPoint(p Point) Point {
	if p.Chunks == 0 {
		p.Chunks = DefaultChunks
	}
	return p
}

// chooseApproxAxis picks the axis with the most distinct eligible values —
// the one interpolation can thin the most. Bandwidth wins ties over
// latency over eager. axisNone means no axis is dense enough to bother.
func chooseApproxAxis(pts []Point, indices []int) approxAxis {
	axes := []approxAxis{axisBandwidth, axisLatency, axisEager}
	best, bestN := axisNone, minApproxFamily-1
	for _, a := range axes {
		distinct := map[float64]bool{}
		for _, idx := range indices {
			p := normPoint(pts[idx])
			if axisEligible(a, p) {
				distinct[axisValue(a, p)] = true
			}
		}
		if len(distinct) > bestN {
			best, bestN = a, len(distinct)
		}
	}
	return best
}

// famMember is one grid point inside a family: its position in the run's
// indices, its normalized point, and its axis coordinate.
type famMember struct {
	pos int
	p   Point
	x   float64
}

// family is one planned interpolation family, resolved by one engine job.
// anchors and spots hold positions into members (sorted by axis
// coordinate). The job fills rows with the results it resolved and closes
// done; the point jobs of its members wait on done before they look.
type family struct {
	axis    approxAxis
	members []famMember
	anchors []int
	spots   []int

	done chan struct{}
	rows []row
}

// row is one resolved point: its position in the run's indices and its
// result.
type row struct {
	pos int
	res Result
}

// approxResults is the surrogate planner's entry point: given the
// expanded grid and the indices the run covers, it returns the
// interpolation families worth resolving, or nil when the fast path does
// not apply. Planning replays nothing: it picks the axis, groups the
// families, and places each family's anchors (the analytic knee among
// them) and seeded spot checks. Each returned family then runs as one
// engine job (approxFamily); points no family resolves run exactly as
// always. The plan is deterministic: for a given grid and index set the
// same families, anchors and spot checks come out regardless of worker
// count or cache state.
func (r *Runner) approxResults(pts []Point, indices []int) []*family {
	if !r.Approx {
		return nil
	}
	axis := chooseApproxAxis(pts, indices)
	if axis == axisNone {
		return nil
	}

	// Group eligible points into families, in first-appearance order.
	groups := map[Point][]famMember{}
	var order []Point
	for j, idx := range indices {
		p := normPoint(pts[idx])
		if !axisEligible(axis, p) {
			continue
		}
		k := approxFamilyKey(axis, p)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], famMember{pos: j, p: p, x: axisValue(axis, p)})
	}

	var fams []*family
	for _, key := range order {
		ms := groups[key]
		if len(ms) < minApproxFamily {
			continue
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].x < ms[j].x })
		if hasDuplicateX(ms) {
			continue // duplicated grid values; leave the family exact
		}
		xs := make([]float64, len(ms))
		for i, m := range ms {
			xs[i] = m.x
		}
		anchors := surrogate.Anchors(xs, surrogate.Log, surrogate.AnchorCount(len(ms)))
		if pos, ok := r.kneePosition(axis, ms[0].p, xs); ok {
			anchors = surrogate.WithKnee(anchors, len(ms), pos)
		}
		predicted := complementPositions(len(ms), anchors)
		seed := surrogate.Seed(key.signatureLabel() + "|approx-axis=" + axis.String())
		spots := make([]int, 0)
		for _, s := range surrogate.SpotChecks(seed, len(predicted), r.approxSpotCheck()) {
			spots = append(spots, predicted[s])
		}
		fams = append(fams, &family{axis: axis, members: ms, anchors: anchors, spots: spots,
			done: make(chan struct{})})
	}
	return fams
}

// approxFamily is one family's engine job: replay the anchors, refine,
// interpolate the rest, spot-check the gate, and either keep the
// predictions or demote the family. It returns the rows it resolved and
// marks their positions in covered; every other member is left to its
// point job, which replays it exactly. Any replay error abandons the
// family silently — its point jobs rediscover and report the error with
// the engine's deterministic lowest-index semantics. The decisions depend
// only on the family's own replays, so they are the same whichever worker
// runs the job and whatever runs beside it.
func (r *Runner) approxFamily(f *family, covered []bool) []row {
	n := len(f.members)
	rep := f.members[0].p
	w, err := r.pointWorkload(rep)
	if err != nil {
		return nil
	}
	nranks := w.Study.Original().NRanks()

	anchors := append([]int(nil), f.anchors...)
	ares := make([]Result, 0, len(anchors))
	for _, pos := range anchors {
		res, err := r.runPoint(f.members[pos].p)
		if err != nil {
			return nil
		}
		ares = append(ares, res)
	}

	// Adaptive refinement: the initial anchors are placed blind (log
	// spacing plus the model's knee estimate), but once they are replayed
	// the chord-versus-extension bound says where the surface actually
	// bends between them — typically around the overlap knee, where the
	// model estimate is off by the very mispredictions this simulator
	// exists to expose. Bisect the riskiest segment until the estimated
	// error is safely inside the gate or the family's replay budget (a
	// quarter of its members, mirroring the sweep-level budget) is spent.
	maxErr := r.approxMaxErr()
	skip := make([]bool, n)
	if f.axis != axisEager {
		xs := make([]float64, n)
		for i, m := range f.members {
			xs[i] = m.x
		}
		xf := surrogate.Reciprocal
		if f.axis == axisLatency {
			xf = surrogate.Linear
		}
		for budget := n/4 - len(anchors) - len(f.spots); budget > 0; budget-- {
			pos, risk := surrogate.RefineCandidate(xs, anchors, anchorFields(ares), xf)
			if pos < 0 || risk <= maxErr/2 {
				break
			}
			res, err := r.runPoint(f.members[pos].p)
			if err != nil {
				return nil
			}
			anchors, ares = insertAnchor(anchors, ares, pos, res)
		}
		// Whatever the budget could not straighten out is not predicted:
		// a still-distrusted segment's interior goes to the exact path,
		// costing that segment's few replays rather than risking the gate
		// demoting the whole family.
		for seg, risk := range surrogate.SegmentRisks(xs, anchors, anchorFields(ares), xf) {
			if risk > maxErr/2 {
				for pos := anchors[seg] + 1; pos < anchors[seg+1]; pos++ {
					skip[pos] = true
				}
			}
		}
	}

	results := make([]Result, n)
	present := make([]bool, n)
	for k, pos := range anchors {
		results[pos] = ares[k]
		present[pos] = true
	}

	if f.axis == axisEager {
		r.predictEagerSteps(f, anchors, ares, results, present, nranks)
	} else {
		r.predictInterpolated(f, anchors, ares, results, present, nranks)
	}
	for pos := range skip {
		if skip[pos] && results[pos].Approx {
			present[pos] = false
		}
	}

	// The gate: spot-replay the seeded selection and compare.
	demote := false
	for _, pos := range f.spots {
		if !present[pos] || !results[pos].Approx {
			continue // eager bracket disagreement left it exact
		}
		exact, err := r.runPoint(f.members[pos].p)
		if err != nil {
			return nil
		}
		r.ctSpotChecks.Add(1)
		if surrogate.RelErr(float64(results[pos].TOriginal), float64(exact.TOriginal)) > maxErr ||
			surrogate.RelErr(float64(results[pos].TOverlap), float64(exact.TOverlap)) > maxErr {
			demote = true
		}
		results[pos] = exact
	}

	if demote {
		r.ctDemoted.Add(1)
	}
	var rows []row
	var predicted int64
	for pos, m := range f.members {
		// A demoted family keeps only its exact rows: anchors and spot
		// checks.
		if !present[pos] || (demote && results[pos].Approx) {
			continue
		}
		rows = append(rows, row{pos: m.pos, res: results[pos]})
		covered[m.pos] = true
		if results[pos].Approx {
			predicted++
		}
	}
	r.ctPredicted.Add(predicted)
	return rows
}

// predictInterpolated fills the non-anchor members of a continuous-axis
// family by piecewise interpolation of the anchor results, in the
// coordinate space where replay time is affine: 1/bandwidth for the
// bandwidth axis, latency itself for the latency axis.
func (r *Runner) predictInterpolated(f *family, anchors []int, ares []Result, results []Result, present []bool, nranks int) {
	n := len(f.members)
	xs := make([]float64, n)
	for i, m := range f.members {
		xs[i] = m.x
	}
	xf := surrogate.Reciprocal
	if f.axis == axisLatency {
		xf = surrogate.Linear
	}
	aO := make([]float64, len(ares))
	aV := make([]float64, len(ares))
	aB := make([]float64, len(ares))
	aS := make([]float64, len(ares))
	for k, a := range ares {
		aO[k] = float64(a.TOriginal)
		aV[k] = float64(a.TOverlap)
		aB[k] = a.Blocked
		aS[k] = float64(a.Steps)
	}
	predO := surrogate.Interpolate(xs, anchors, aO, xf, surrogate.Linear)
	predV := surrogate.Interpolate(xs, anchors, aV, xf, surrogate.Linear)
	predB := surrogate.Interpolate(xs, anchors, aB, xf, surrogate.Linear)
	predS := surrogate.Interpolate(xs, anchors, aS, xf, surrogate.Linear)
	for pos := 0; pos < n; pos++ {
		if present[pos] {
			continue
		}
		results[pos] = r.predictedResult(f.members[pos].p, nranks,
			predO[pos], predV[pos], predB[pos], predS[pos])
		present[pos] = true
	}
}

// predictEagerSteps fills non-anchor members of an eager-threshold family
// only where the bracketing anchors agree within the error bound: the
// axis is a monotone step function of the threshold (each message size
// crossed flips its protocol), so agreement means the whole bracket sits
// on one plateau and the plateau value is the prediction. Disagreeing
// brackets straddle a step; those points are left to the exact path
// rather than risk interpolating across a discontinuity.
func (r *Runner) predictEagerSteps(f *family, anchors []int, ares []Result, results []Result, present []bool, nranks int) {
	maxErr := r.approxMaxErr()
	for pos := range f.members {
		if present[pos] {
			continue
		}
		lo, hi := -1, -1
		for k, apos := range anchors {
			if apos < pos {
				lo = k
			}
			if apos > pos && hi < 0 {
				hi = k
			}
		}
		if lo < 0 || hi < 0 {
			continue
		}
		a, b := ares[lo], ares[hi]
		if surrogate.RelErr(float64(a.TOriginal), float64(b.TOriginal)) > maxErr ||
			surrogate.RelErr(float64(a.TOverlap), float64(b.TOverlap)) > maxErr {
			continue
		}
		results[pos] = r.predictedResult(f.members[pos].p, nranks,
			float64(a.TOriginal), float64(a.TOverlap), a.Blocked, float64(a.Steps))
		present[pos] = true
	}
}

// predictedResult assembles a surrogate Result for a point from predicted
// field values: the platform bandwidth resolves exactly as runPoint's,
// the speedup is recomputed from the rounded times, and Approx marks the
// row for downstream consumers.
func (r *Runner) predictedResult(p Point, nranks int, tOrig, tOver, blocked, steps float64) Result {
	m := r.machineFor(p, nranks)
	res := Result{
		Point:     p,
		Bandwidth: m.Bandwidth,
		TOriginal: units.Time(math.Round(tOrig)),
		TOverlap:  units.Time(math.Round(tOver)),
		Speedup:   1,
		Blocked:   math.Min(1, math.Max(0, blocked)),
		Steps:     int64(math.Round(steps)),
		Approx:    true,
	}
	if res.TOverlap > 0 {
		res.Speedup = float64(res.TOriginal) / float64(res.TOverlap)
	}
	return res
}

// kneePosition locates the analytic model's overlap knee on the family's
// axis grid: the coordinate where communication time equals computation
// time, where the overlap benefit peaks and the replay surface bends. It
// returns the nearest grid position so the planner can anchor a replay
// there. The eager axis has no knee model.
func (r *Runner) kneePosition(axis approxAxis, rep Point, xs []float64) (int, bool) {
	if axis == axisEager {
		return 0, false
	}
	w, err := r.pointWorkload(rep)
	if err != nil {
		return 0, false
	}
	ps := w.Study.Profiled
	m := r.machineFor(rep, ps.Original.NRanks())
	mips := m.MIPS
	if mips == 0 {
		mips = ps.Original.MIPS
	}
	model := analytic.FromStats(trace.Stats(ps.Original), mips)
	var kx float64
	switch axis {
	case axisBandwidth:
		bw, ok := model.IntermediateBandwidth(m)
		if !ok {
			return 0, false
		}
		kx = float64(bw)
	case axisLatency:
		l, ok := model.IntermediateLatency(m)
		if !ok {
			return 0, false
		}
		kx = float64(l)
	}
	best, bestDist := -1, math.Inf(1)
	for i, x := range xs {
		d := math.Abs(x - kx)
		if kx > 0 && x > 0 {
			d = math.Abs(math.Log(x / kx)) // multiplicative grids: nearest in ratio
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, best >= 0
}

// anchorFields projects the anchor results into the field slices the
// refinement risk estimate inspects — the two fields the error gate
// bounds.
func anchorFields(ares []Result) [][]float64 {
	tO := make([]float64, len(ares))
	tV := make([]float64, len(ares))
	for k, a := range ares {
		tO[k] = float64(a.TOriginal)
		tV[k] = float64(a.TOverlap)
	}
	return [][]float64{tO, tV}
}

// insertAnchor adds a refined anchor at member position pos, keeping the
// anchor positions sorted and the result slice aligned.
func insertAnchor(anchors []int, ares []Result, pos int, res Result) ([]int, []Result) {
	k := sort.SearchInts(anchors, pos)
	anchors = append(anchors, 0)
	copy(anchors[k+1:], anchors[k:])
	anchors[k] = pos
	ares = append(ares, Result{})
	copy(ares[k+1:], ares[k:])
	ares[k] = res
	return anchors, ares
}

// hasDuplicateX reports duplicated axis coordinates in a sorted family.
func hasDuplicateX(ms []famMember) bool {
	for i := 1; i < len(ms); i++ {
		if ms[i].x == ms[i-1].x {
			return true
		}
	}
	return false
}

// complementPositions returns the positions in [0,n) not present in the
// sorted slice in.
func complementPositions(n int, in []int) []int {
	out := make([]int, 0, n-len(in))
	j := 0
	for i := 0; i < n; i++ {
		if j < len(in) && in[j] == i {
			j++
			continue
		}
		out = append(out, i)
	}
	return out
}
