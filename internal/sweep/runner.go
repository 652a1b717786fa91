package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"overlapsim/internal/apps"
	"overlapsim/internal/core"
	"overlapsim/internal/machine"
	"overlapsim/internal/memo"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// Runner executes grids: it traces every distinct (app, config, chunks)
// workload exactly once — the single instrumented run of the paper's
// methodology — as a Workload, memoizes replay results per (workload,
// variant, platform), and replays each grid point on its platform. It
// owns every traced workload and replay of a process: the experiment
// harness runs on it too. All methods are safe for concurrent use; the
// engine's workers share the caches.
type Runner struct {
	// Base is the platform every point starts from; a point's Bandwidth
	// (when non-negative) overrides the base network bandwidth.
	Base machine.Config
	// Size and Iters scale every grid point's workload; 0 keeps defaults.
	Size  int
	Iters int
	// Engine is the worker pool configuration.
	Engine Engine
	// Cache, when non-nil, persists profiled trace sets on disk so that
	// repeated sweeps and sibling shards (other processes) skip the
	// instrumented run entirely. A present but undecodable entry is
	// ignored with a warning (TraceCache.Warn) and the workload re-traced;
	// cache writes are best-effort — a read-only or full cache directory
	// must not discard a trace that just succeeded. The first failed write
	// is reported by CacheStoreErr.
	Cache *TraceCache
	// Deprecated: ReplayPar has no effect; the runner picks the replay
	// width itself (see replayWidth).
	ReplayPar int
	// Deprecated: DisableBatch has no effect; every replay runs once, on
	// the workers, through the per-point memo.
	DisableBatch bool
	// Store, when non-nil, persists replay results on disk (normally next
	// to the trace cache), so a warm re-run of an identical sweep — or a
	// sibling shard replaying the same (workload, variant, platform) —
	// skips the replay too, not just the trace. Like the trace cache it is
	// best-effort in both directions: a corrupt entry is recomputed with a
	// warning and a failed write surfaces through CacheStoreErr.
	Store *replaystore.Store
	// Approx enables the surrogate fast path: dense numeric axes are
	// partitioned into interpolation families, only an anchor subset per
	// family is replayed, and the remaining points are predicted by
	// monotone interpolation, guarded by deterministic spot-check replays
	// (see approx.go). Off (the default) the runner behaves byte-
	// identically to a build without the feature. Predicted results are
	// marked Approx and are never written to the replay store.
	Approx bool
	// ApproxMaxErr is the error-bound gate: a family whose spot-checked
	// relative error exceeds it is demoted to full replay. 0 means
	// DefaultApproxMaxErr. The bound is statistical: only the spot checks
	// are compared with an exact replay, not every predicted point.
	ApproxMaxErr float64
	// ApproxSpotCheck is the fraction of predicted points that are spot-
	// replayed per family (at least one). 0 means DefaultApproxSpotCheck.
	ApproxSpotCheck float64

	traces  memo.Map[pipeKey, *Workload]
	replays memo.Map[memoKey, replaystore.Result]

	// mu guards the first failed cache write and the work tally.
	mu       sync.Mutex
	storeErr error
	work     Counters

	// pending counts, per variant, the points of in-flight runs that have
	// yet to finish, plus one per Retain still held; see hold and release.
	pendMu  sync.Mutex
	pending map[variantKey]int
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.work
}

// add folds d into the runner's work tally.
func (r *Runner) add(d Counters) {
	r.mu.Lock()
	r.work = r.work.Add(d)
	r.mu.Unlock()
}

// pipeKey identifies one traced workload: the application at a full
// configuration (0 fields mean the app default) and the chunk granularity
// the tracer profiles at.
type pipeKey struct {
	app    string
	cfg    apps.Config
	chunks int
}

// variantKey identifies one overlapped variant the Runner holds: the
// traced workload and the options that transform it.
type variantKey struct {
	pipe pipeKey
	opts overlap.Options
}

// NewRunner returns a runner on the given base platform with default scale.
func NewRunner(base machine.Config) *Runner {
	return &Runner{Base: base}
}

// Workload is one traced workload as the Runner holds it, shared by every
// caller that asks for the same (app, config, chunks). Its methods are
// safe for concurrent use.
type Workload struct {
	// Study is the traced workload; its Compare replays with timelines,
	// for callers that render them.
	Study *core.Study

	r   *Runner
	key pipeKey
}

// Workload returns the traced workload of app at cfg (0 fields mean the
// app default), profiled at chunks granularity, tracing it on first use.
// With a persistent cache configured the instrumented run is skipped when
// a sibling process (an earlier sweep, another shard) already traced the
// workload; a fresh trace is stored for them in turn.
func (r *Runner) Workload(app string, cfg apps.Config, chunks int) (*Workload, error) {
	key := pipeKey{app: app, cfg: cfg, chunks: chunks}
	w, _, err := r.traces.Get(key, "trace", func() (*Workload, error) {
		ps, hit, storeErr, err := r.Cache.LoadOrTrace(app, cfg, chunks, func() (*overlap.ProfiledSet, error) {
			a, err := apps.New(app, cfg)
			if err != nil {
				return nil, err
			}
			r.add(Counters{Traces: 1})
			return tracer.Trace(a, tracer.Options{Chunks: chunks})
		})
		if hit {
			r.add(Counters{TraceCacheHits: 1})
		}
		r.noteStoreErr(storeErr)
		if err != nil {
			return nil, err
		}
		return &Workload{Study: &core.Study{Profiled: ps}, r: r, key: key}, nil
	})
	return w, err
}

// pointWorkload returns the workload a grid point replays: its app and
// ranks at the runner's problem scale, profiled at its chunk count.
func (r *Runner) pointWorkload(p Point) (*Workload, error) {
	k := r.pointKey(&p)
	return r.Workload(k.app, k.cfg, k.chunks)
}

// pointKey is the key of the workload a grid point replays.
func (r *Runner) pointKey(p *Point) pipeKey {
	return pipeKey{app: p.App, cfg: apps.Config{Ranks: p.Ranks, Size: r.Size, Iterations: r.Iters}, chunks: p.Chunks}
}

// variantOf is the variant a grid point replays.
func (r *Runner) variantOf(p *Point) variantKey {
	q := normPoint(*p)
	return variantKey{pipe: r.pointKey(&q), opts: q.Options()}
}

// Retain keeps every variant g's points replay until the returned
// function is called, so a caller that runs g in pieces on this Runner
// transforms each variant once rather than once per piece. A campaign
// worker, which runs one lease of its grid at a time, retains the grid
// for its lifetime. The returned function is safe to call more than once.
func (r *Runner) Retain(g Grid) (release func()) {
	pts := g.Expand()
	seen := make(map[variantKey]bool)
	var keys []variantKey
	for i := range pts {
		if k := r.variantOf(&pts[i]); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	r.hold(keys)
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, k := range keys {
				r.release(k)
			}
		})
	}
}

// hold registers one pending point per entry of keys.
func (r *Runner) hold(keys []variantKey) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	if r.pending == nil {
		r.pending = make(map[variantKey]int, len(keys))
	}
	for _, k := range keys {
		r.pending[k]++
	}
}

// release retires one pending point (or Retain) of k. The last one drops
// the variant from its workload's study, so a variant lives until no
// in-flight run has a pending point that replays it and no Retain holds
// it. The workload is looked up without
// inserting, and the drop happens under the lock, so a run that holds
// the variant again cannot lose a transform it has just built.
func (r *Runner) release(k variantKey) {
	r.pendMu.Lock()
	defer r.pendMu.Unlock()
	if n := r.pending[k] - 1; n > 0 {
		r.pending[k] = n
		return
	}
	delete(r.pending, k)
	if w, ok := r.traces.Lookup(k.pipe); ok {
		w.Study.ReleaseVariant(k.opts)
	}
}

// CacheStoreErr returns the first cache-write failure of the run — trace
// cache or replay store — if any. Write failures do not fail the sweep
// (the results are still correct and complete); callers can surface them
// as a warning that the next run will recompute.
func (r *Runner) CacheStoreErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeErr
}

// noteStoreErr records a failed cache write, keeping the first; nil is a
// successful write and is ignored.
func (r *Runner) noteStoreErr(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.storeErr == nil {
		r.storeErr = err
	}
}

// memoKey identifies one replay semantically: the traced workload (its
// name, resolved rank count and problem scale), the trace variant, and the
// full platform. The variant name embeds pattern, mechanisms and chunk
// count for overlapped traces and is "original" for the untransformed one
// — identical across the chunk axis, so chunk sweeps share one original
// replay. chunks, 0 for the original, is the granularity an overlapped
// variant's trace was profiled at (a c16 variant can come from a c8 one).
type memoKey struct {
	app         string
	ranks       int
	size, iters int
	variant     string
	chunks      int
	platform    machine.Config
}

// Replay returns the outcome of replaying the workload on m: of the
// original trace when opts is nil, otherwise of the overlapped variant
// opts builds. Replays are memoized per memoKey, which collapses the
// duplicates a grid contains (every mechanism point re-replays the
// original trace). With a persistent Store the memo is backed by disk: a
// fill first consults the store, and a simulated result is written back
// for the next process — once per fill, off the replay hot path. The
// store key has no room for the profiled granularity, so a variant whose
// chunk count differs from it stays in memory.
//
// The key names the variant without building it (see replayKey), so the
// study's transform runs only on a replay miss, after the store misses
// too: a later run transforms only on a replay miss, and a memo or store
// hit transforms, validates and numbers nothing. A variant that cannot
// be built fails with the study's error and counts no replay-memo hit,
// however often it is asked for: the failure is the study's, not a replay.
func (w *Workload) Replay(opts *overlap.Options, m machine.Config) (replaystore.Result, error) {
	key, store := w.replayKey(opts, m)
	r := w.r
	building := false // true while this call's fill builds the variant
	defer func() {
		// A build that panicked is forgotten, so the next call asks the
		// study again and gets its recorded failure.
		if building {
			r.replays.Delete(key)
		}
	}()
	res, hit, err := r.replays.Get(key, "replay", func() (replaystore.Result, error) {
		var storeKey string
		if store != nil {
			storeKey = store.Key(key.app, key.ranks, key.size, key.iters, key.variant, key.platform)
			if sr := store.Load(storeKey); sr != nil {
				r.add(Counters{ReplayStoreHits: 1})
				return *sr, nil
			}
		}
		ts := w.Study.Original()
		if opts != nil {
			var err error
			building = true
			ts, err = buildVariant(w.Study, *opts)
			building = false
			if err != nil {
				return replaystore.Result{}, buildError{err}
			}
		}
		r.add(Counters{Replays: 1})
		var sum [1]replay.Summary
		if _, err := simulate(ts, []machine.Config{m}, sum[:], replayWidth(key.ranks)); err != nil {
			return replaystore.Result{}, err
		}
		r.add(Counters{ParallelWindows: sum[0].Windows})
		res := replaystore.Result{Total: sum[0].Total, Steps: sum[0].Steps, Blocked: sum[0].Blocked}
		if store != nil {
			r.noteStoreErr(store.Store(storeKey, res))
		}
		return res, nil
	})
	if be, ok := err.(buildError); ok {
		return res, be.err
	}
	if hit {
		r.add(Counters{ReplayMemoHits: 1})
	}
	return res, err
}

// buildError is a replay-memo fill that failed building its variant; Replay
// returns the wrapped study error to every caller that shares the fill.
type buildError struct{ err error }

func (e buildError) Error() string { return e.err.Error() }

// replayKey is the key Replay memoizes the replay of opts on m under, and
// the store that backs it (nil when the variant's chunk count differs
// from the profiled one). It names the variant the way overlap.Transform
// names its output, so it needs no variant built.
func (w *Workload) replayKey(opts *overlap.Options, m machine.Config) (memoKey, *replaystore.Store) {
	orig := w.Study.Original()
	key := memoKey{app: w.key.app, ranks: orig.NRanks(), size: w.key.cfg.Size, iters: w.key.cfg.Iterations,
		variant: orig.Variant, platform: m}
	store := w.r.Store
	if opts != nil {
		chunks := w.Study.Profiled.Chunks
		key.variant, key.chunks = opts.Variant(chunks), chunks
		if opts.Chunks != 0 && opts.Chunks != chunks {
			store = nil
		}
	}
	// The platform name is presentation (it is rewritten by WithBandwidth);
	// drop it so label differences cannot split otherwise equal platforms.
	key.platform.Name = ""
	return key, store
}

// replayWidth is the parallel replay width a memo fill asks for: one shard
// per execution slot, each keeping at least the 16 ranks below which
// replay's window engine does not pay. Fewer than two shards means
// sequential replay (so GOMAXPROCS=1 forces it), and replay itself still
// declines platforms with contention or collectives. Results are identical
// at any width.
func replayWidth(ranks int) int { return min(runtime.GOMAXPROCS(0), ranks/16) }

// simulate is the replay a memo fill runs: the Summary path, since a sweep
// consumes no timelines. Tests swap it to inject a panicking replay.
var simulate = replay.SimulateBatch

// buildVariant is how a memo fill gets its overlapped variant: the study's
// memoized transform. Tests swap it to count the variants a run builds.
var buildVariant = (*core.Study).Variant

// machineFor applies the point's platform overrides to the base config: the
// bandwidth axis first (a negative value, BaseBandwidth, keeps the base
// platform's; zero means infinitely fast, following the machine model's
// convention), then the platform overlay. When the overlay re-places ranks
// (RanksPerNode), the node count is re-derived from the traced rank count,
// so an SMP axis packs the same ranks onto fewer nodes instead of failing
// the capacity check.
func (r *Runner) machineFor(p Point, nranks int) machine.Config {
	m := r.Base
	if m.Nodes == 0 {
		m = machine.Default()
	}
	if p.Bandwidth >= 0 {
		m = m.WithBandwidth(p.Bandwidth)
	}
	m = p.Platform.Apply(m)
	if p.Platform.RanksPerNodeSet {
		m = m.WithNodes(nranks)
	}
	return m
}

// runPoint simulates one grid point: its workload's ReplayPair on the
// point's platform.
func (r *Runner) runPoint(p Point) (Result, error) {
	p = normPoint(p)
	w, err := r.pointWorkload(p)
	if err != nil {
		return Result{}, err
	}
	res, err := w.ReplayPair(p.Options(), r.machineFor(p, w.Study.Original().NRanks()))
	if err != nil {
		return Result{}, err
	}
	res.Point = p
	return res, nil
}

// ReplayPair replays the workload's original trace and the overlapped
// variant opts builds on m, both through Replay, and pairs them as a
// Result with Point left zero: the two runtimes, the speedup, the
// original's blocked fraction and the DES steps of both.
func (w *Workload) ReplayPair(opts overlap.Options, m machine.Config) (Result, error) {
	orig, err := w.Replay(nil, m)
	if err != nil {
		return Result{}, err
	}
	over, err := w.Replay(&opts, m)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Bandwidth: m.Bandwidth,
		TOriginal: orig.Total,
		TOverlap:  over.Total,
		Speedup:   1,
		Blocked:   orig.Blocked,
		Steps:     orig.Steps + over.Steps,
	}
	if over.Total > 0 {
		res.Speedup = float64(orig.Total) / float64(over.Total)
	}
	return res, nil
}

// Run simulates every point of the grid on the worker pool. Results come
// back in expansion order, bit-identical for any worker count; the first
// error (in point order) aborts the sweep, and no partial results are
// returned, so callers cannot mistake an interrupted sweep for a complete
// one.
func (r *Runner) Run(g Grid) ([]Result, error) {
	out := make(resultSlice, g.Size())
	if err := r.run(context.Background(), g, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// RunSink runs the grid and delivers every result to the sink, retaining
// nothing: the streaming execution path for campaign-scale grids whose
// result sets should not live in memory. It is RunSinkContext without
// cancellation.
func (r *Runner) RunSink(g Grid, sink Sink) error {
	return r.run(context.Background(), g, nil, sink)
}

// RunSinkContext runs the grid, feeding each result to sink.Accept as it
// completes (serialized, completion order). The runner never closes the
// sink: on success the caller Closes to finalize the encoding, and on
// cancellation the caller chooses — an OrderedSink Closed after an
// interrupt keeps the flushed grid-order prefix, which is the partial-
// results contract of `overlapsim sweep -stream-ordered`. Cancelling the
// context stops the sweep promptly (claimed points finish and still reach
// the sink, no new ones start) and returns ctx.Err().
func (r *Runner) RunSinkContext(ctx context.Context, g Grid, sink Sink) error {
	return r.run(ctx, g, nil, sink)
}

// RunIndicesSinkContext is RunSinkContext over only the given expanded-
// point indices — the shard execution path; nil means every point. The
// sink sees expanded-grid indices (not positions), so shard and unsharded
// runs feed any sink identically, and errors follow the indices slice the
// way a full run follows the expansion.
func (r *Runner) RunIndicesSinkContext(ctx context.Context, g Grid, indices []int, sink Sink) error {
	return r.run(ctx, g, indices, sink)
}

// run is the single sweep execution path behind every entry point:
// validate and expand the grid, resolve and bounds-check the requested
// indices, let the surrogate planner pick its families, then fan the work
// out on the engine.
//
// The engine's jobs are one per planned family, then one per point in
// indices order; with Approx off that is exactly the point list. A family
// job delivers the members it resolves as soon as it finishes. A member's
// point job waits for its family and replays the member only if the
// family left it exact (a distrusted segment, a demoted or abandoned
// family). Family jobs are claimed first, and a claimed job always runs,
// so a waiting point job never waits on a job no worker holds. Errors
// and progress speak in points: a failing point job's *JobError carries
// its position in indices, as with Approx off, a panicking family job
// fails the run as a planning error, and the engine's Progress counts
// delivered points against len(indices).
//
// Each point holds its variant from before any job starts until its job
// ends, whether the job replayed it or its family covered it; a point
// whose job never ran (a cancelled or failed run) lets go when the run
// returns. The last point to let go of a variant releases it (see
// release). Workloads and replay results stay memoized, so a later run
// traces and replays nothing twice, and transforms only on a replay miss:
// a point whose replays the memo answers builds no variant.
func (r *Runner) run(ctx context.Context, g Grid, indices []int, sink Sink) error {
	if err := g.Validate(); err != nil {
		return err
	}
	pts := g.Expand()
	if indices == nil {
		indices = make([]int, len(pts))
		for i := range indices {
			indices[i] = i
		}
	}
	for _, i := range indices {
		if i < 0 || i >= len(pts) {
			return fmt.Errorf("sweep: point index %d out of range [0,%d)", i, len(pts))
		}
	}
	// Planning replays nothing, but the knee model traces the workloads it
	// plans, on this goroutine; runJob turns a panic there into this run's
	// error.
	fams, err := runJob(func(int) ([]*family, error) {
		return r.approxResults(pts, indices), nil
	}, 0)
	if err != nil {
		return fmt.Errorf("sweep: planning: %w", err)
	}
	vks := make([]variantKey, len(indices))
	for pos, i := range indices {
		vks[pos] = r.variantOf(&pts[i])
	}
	r.hold(vks)
	ended := make([]bool, len(indices)) // by position: its job released vks[pos]
	defer func() {
		for pos, ok := range ended {
			if !ok {
				r.release(vks[pos])
			}
		}
	}()
	nf := len(fams)
	var famOf []*family // by position: the family holding the point, if any
	var covered []bool  // by position: resolved and delivered by its family
	if nf > 0 {
		famOf = make([]*family, len(indices))
		covered = make([]bool, len(indices))
		for _, f := range fams {
			for _, m := range f.members {
				famOf[m.pos] = f
			}
		}
	}

	e := r.Engine
	progress := e.Progress
	e.Progress = nil
	delivered, sinkPos := 0, 0
	deliver := func(pos int, res Result) error {
		// A failing or panicking Accept reports the position it was given.
		sinkPos = pos
		if err := sink.Accept(indices[pos], res); err != nil {
			return err
		}
		delivered++
		if progress != nil {
			progress(delivered, len(indices))
		}
		return nil
	}
	err = EachContext(ctx, e, nf+len(indices), func(j int) (Result, error) {
		if j < nf {
			f := fams[j]
			defer close(f.done)
			f.rows = r.approxFamily(f, covered)
			return Result{}, nil
		}
		pos := j - nf
		defer func() {
			ended[pos] = true
			r.release(vks[pos])
		}()
		if famOf != nil && famOf[pos] != nil {
			<-famOf[pos].done
			if covered[pos] {
				return Result{}, nil
			}
		}
		return r.runPoint(pts[indices[pos]])
	}, func(j int, res Result) error {
		if j < nf {
			rows := fams[j].rows
			fams[j].rows = nil
			for _, rw := range rows {
				if err := deliver(rw.pos, rw.res); err != nil {
					return err
				}
			}
			return nil
		}
		if pos := j - nf; covered == nil || !covered[pos] {
			return deliver(pos, res)
		}
		return nil
	})
	// Map job indices back to positions in indices.
	switch e := err.(type) {
	case *JobError:
		if e.Index < nf {
			return fmt.Errorf("sweep: planning: %w", e.Err)
		}
		e.Index -= nf
	case *SinkError:
		e.Index = sinkPos
	}
	return err
}

// resultSlice is the sink behind Run: each result lands at its expanded-
// grid index.
type resultSlice []Result

func (s resultSlice) Accept(index int, r Result) error { s[index] = r; return nil }
func (resultSlice) Close() error                       { return nil }

// Result is the outcome of one grid point.
type Result struct {
	Point Point
	// Bandwidth is the effective network bandwidth the point replayed on,
	// with the base platform's value resolved in (0 = infinite).
	Bandwidth units.Bandwidth
	// TOriginal and TOverlap are the simulated runtimes of the original
	// and the overlap-transformed executions.
	TOriginal units.Time
	TOverlap  units.Time
	// Speedup is TOriginal/TOverlap (1 when TOverlap is zero).
	Speedup float64
	// Blocked is the original execution's mean blocked-time fraction, the
	// measure that locates the intermediate-bandwidth regime.
	Blocked float64
	// Steps counts DES events executed across both replays.
	Steps int64
	// Approx marks a surrogate-predicted result (the -approx fast path):
	// its times were interpolated from anchor replays rather than
	// simulated, within the run's error bound. Exact-mode results and
	// anchor/spot-check replays leave it false.
	Approx bool
}
