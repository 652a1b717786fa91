package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// DefaultApproxMaxErr.
	ApproxMaxErr float64
	// ApproxSpotCheck is the fraction of predicted points that are spot-
	// replayed per family (at least one). 0 means DefaultApproxSpotCheck.
	ApproxSpotCheck float64

	traces  memo.Map[pipeKey, *Workload]
	replays memo.Map[memoKey, replaystore.Result]

	mu       sync.Mutex
	storeErr error

	ctTraces     atomic.Int64
	ctTraceHits  atomic.Int64
	ctReplays    atomic.Int64
	ctMemoHits   atomic.Int64
	ctStoreHits  atomic.Int64
	ctWindows    atomic.Int64
	ctPredicted  atomic.Int64
	ctSpotChecks atomic.Int64
	ctDemoted    atomic.Int64
}

// Counters is a snapshot of the runner's work and cache-hit accounting —
// the observable evidence that the caching layers actually cut work.
type Counters struct {
	// Traces counts instrumented application runs executed by this runner.
	Traces int64
	// TraceCacheHits counts workloads served from the persistent cache.
	TraceCacheHits int64
	// Replays counts DES replays actually simulated.
	Replays int64
	// ReplayMemoHits counts replays answered from the in-memory memo.
	ReplayMemoHits int64
	// ReplayStoreHits counts replays answered from the persistent store —
	// work a previous process already paid for. A warm re-run of an
	// identical sweep shows Traces == 0 and Replays == 0 here.
	ReplayStoreHits int64
	// Deprecated: BatchedReplays is always 0; replays are no longer
	// batched.
	BatchedReplays int64
	// ParallelWindows counts conservative-window rounds executed by the
	// parallel replay engine; 0 means every replay ran sequentially.
	ParallelWindows int64
	// PredictedPoints counts grid points answered by surrogate
	// interpolation instead of replay (-approx); 0 in exact mode.
	PredictedPoints int64
	// SpotCheckReplays counts the predicted points the error gate
	// replayed exactly to validate their families.
	SpotCheckReplays int64
	// DemotedFamilies counts interpolation families whose spot checks
	// exceeded the error bound and were demoted to full replay.
	DemotedFamilies int64
}

// Add returns the fieldwise sum of two counter snapshots — used to fold
// per-worker work accounting into campaign totals.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Traces:           c.Traces + o.Traces,
		TraceCacheHits:   c.TraceCacheHits + o.TraceCacheHits,
		Replays:          c.Replays + o.Replays,
		ReplayMemoHits:   c.ReplayMemoHits + o.ReplayMemoHits,
		ReplayStoreHits:  c.ReplayStoreHits + o.ReplayStoreHits,
		ParallelWindows:  c.ParallelWindows + o.ParallelWindows,
		PredictedPoints:  c.PredictedPoints + o.PredictedPoints,
		SpotCheckReplays: c.SpotCheckReplays + o.SpotCheckReplays,
		DemotedFamilies:  c.DemotedFamilies + o.DemotedFamilies,
	}
}

// Sub returns the fieldwise difference c - o: the work done between two
// snapshots of the same runner.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Traces:           c.Traces - o.Traces,
		TraceCacheHits:   c.TraceCacheHits - o.TraceCacheHits,
		Replays:          c.Replays - o.Replays,
		ReplayMemoHits:   c.ReplayMemoHits - o.ReplayMemoHits,
		ReplayStoreHits:  c.ReplayStoreHits - o.ReplayStoreHits,
		ParallelWindows:  c.ParallelWindows - o.ParallelWindows,
		PredictedPoints:  c.PredictedPoints - o.PredictedPoints,
		SpotCheckReplays: c.SpotCheckReplays - o.SpotCheckReplays,
		DemotedFamilies:  c.DemotedFamilies - o.DemotedFamilies,
	}
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Counters {
	return Counters{
		Traces:           r.ctTraces.Load(),
		TraceCacheHits:   r.ctTraceHits.Load(),
		Replays:          r.ctReplays.Load(),
		ReplayMemoHits:   r.ctMemoHits.Load(),
		ReplayStoreHits:  r.ctStoreHits.Load(),
		ParallelWindows:  r.ctWindows.Load(),
		PredictedPoints:  r.ctPredicted.Load(),
		SpotCheckReplays: r.ctSpotChecks.Load(),
		DemotedFamilies:  r.ctDemoted.Load(),
	}
}

// pipeKey identifies one traced workload: the application at a full
// configuration (0 fields mean the app default) and the chunk granularity
// the tracer profiles at.
type pipeKey struct {
	app    string
	cfg    apps.Config
	chunks int
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
			r.ctTraces.Add(1)
			return tracer.Trace(a, tracer.Options{Chunks: chunks})
		})
		if hit {
			r.ctTraceHits.Add(1)
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
	return r.Workload(p.App, apps.Config{Ranks: p.Ranks, Size: r.Size, Iterations: r.Iters}, p.Chunks)
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
func (w *Workload) Replay(opts *overlap.Options, m machine.Config) (replaystore.Result, error) {
	ps := w.Study.Profiled
	ts := ps.Original
	key := memoKey{app: w.key.app, size: w.key.cfg.Size, iters: w.key.cfg.Iterations, platform: m}
	store := w.r.Store
	if opts != nil {
		var err error
		if ts, err = w.Study.Variant(*opts); err != nil {
			return replaystore.Result{}, err
		}
		key.chunks = ps.Chunks
		if opts.Chunks != 0 && opts.Chunks != ps.Chunks {
			store = nil
		}
	}
	key.ranks, key.variant = ts.NRanks(), ts.Variant
	// The platform name is presentation (it is rewritten by WithBandwidth);
	// drop it so label differences cannot split otherwise equal platforms.
	key.platform.Name = ""
	r := w.r
	res, hit, err := r.replays.Get(key, "replay", func() (replaystore.Result, error) {
		var storeKey string
		if store != nil {
			storeKey = store.Key(key.app, key.ranks, key.size, key.iters, key.variant, key.platform)
			if sr := store.Load(storeKey); sr != nil {
				r.ctStoreHits.Add(1)
				return *sr, nil
			}
		}
		r.ctReplays.Add(1)
		var sum [1]replay.Summary
		if _, err := simulate(ts, []machine.Config{m}, sum[:], replayWidth(key.ranks)); err != nil {
			return replaystore.Result{}, err
		}
		r.ctWindows.Add(sum[0].Windows)
		res := replaystore.Result{Total: sum[0].Total, Steps: sum[0].Steps, Blocked: sum[0].Blocked}
		if store != nil {
			r.noteStoreErr(store.Store(storeKey, res))
		}
		return res, nil
	})
	if hit {
		r.ctMemoHits.Add(1)
	}
	return res, err
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
	if p.Chunks == 0 {
		p.Chunks = DefaultChunks
	}
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
		if err := sink.Accept(indices[pos], res); err != nil {
			sinkPos = pos
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
