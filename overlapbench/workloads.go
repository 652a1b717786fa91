package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"overlapsim/internal/campaign"
	"overlapsim/internal/machine"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

var workloadNames = []string{"paper-cold", "dense-approx", "serve-mixed", "campaign-warm"}

// approxBound is the accuracy a dense-approx run must keep against the
// exact reference: the surrogate's default error gate.
const approxBound = sweep.DefaultApproxMaxErr

// errExhausted ends a measurement window early: the workload has no more
// inputs with stored references (serve-mixed's novel grids).
var errExhausted = errors.New("inputs with references exhausted")

// env is what every workload instance shares: its inputs' seed, the
// reference for that seed, and a private scratch directory.
type env struct {
	seed    int64
	variant int
	scale   scale
	tmp     string
	ref     *variantRef
	// setupErrs collects output mismatches seen while setting up (a warmed
	// cache that disagrees with the reference); they count as failures.
	setupErrs []string
}

// reqSample is one request as its caller saw it.
type reqSample struct {
	lat  time.Duration // sent to complete, verified output
	ttfb time.Duration // sent to first result row
	ok   bool
	cold bool // the request needed instrumented runs (serve-mixed)
}

// unitOut is one unit of work: a sweep, a campaign, or one round of serve
// traffic.
type unitOut struct {
	wall        time.Duration
	reqs        []reqSample
	errs        []string
	work        sweep.Counters
	camp        campaign.Counters
	rejected    int64
	storeWrites int64
	maxRelErr   float64
	sinkBytes   int64
	digests     []string
	inputs      []input
}

func (u *unitOut) failf(format string, args ...any) {
	u.errs = append(u.errs, fmt.Sprintf(format, args...))
}

func (u *unitOut) failed() int {
	n := 0
	for _, r := range u.reqs {
		if !r.ok {
			n++
		}
	}
	return n
}

// workload is one benchmark workload. setup may be called several times;
// each call replaces the previous instance's state.
type workload interface {
	setup(e *env) error
	unit(ctx context.Context, rec *recorder, parent int) (unitOut, error)
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-cold":
		return &sweepWorkload{make: paperColdInput}, nil
	case "dense-approx":
		return &sweepWorkload{make: denseApproxInput}, nil
	case "serve-mixed":
		return &serveWorkload{}, nil
	case "campaign-warm":
		return &campaignWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---- paper-cold and dense-approx: one library sweep per unit ----

type sweepWorkload struct {
	make func(v int, sc scale) input
	e    *env
	in   input
	grid sweep.Grid
}

func (w *sweepWorkload) setup(e *env) error {
	w.e = e
	w.in = w.make(e.variant, e.scale)
	g, err := w.in.grid()
	if err != nil {
		return err
	}
	w.grid = g
	// Warm the process (heap, pools, code pages) on a slice of the same
	// sweep with a throwaway runner; the timed sweeps stay cold, since each
	// gets a fresh runner and no cache directory. Two bandwidths keep the
	// batch prefill in the slice, as in the timed sweeps.
	warm := w.in
	warm.Req.Apps = warm.Req.Apps[:1]
	warm.Req.Bandwidths = warm.Req.Bandwidths[:2]
	wg, err := warm.grid()
	if err != nil {
		return err
	}
	return warm.runner().RunSink(wg, discardSink{})
}

func (w *sweepWorkload) unit(ctx context.Context, rec *recorder, parent int) (unitOut, error) {
	out := unitOut{inputs: []input{w.in}}
	r := w.in.runner()
	dw := newDigestWriter()
	bs := sweep.NewBatchSink(dw, sweep.FormatCSV)
	bs.SetApprox(w.in.approx())
	results := make([]sweep.Result, w.grid.Size())
	ts := &timedSink{inner: bs, rec: rec, parent: parent, keep: func(i int, x sweep.Result) { results[i] = x }}
	start := time.Now()
	err := r.RunSinkContext(ctx, w.grid, ts)
	if err == nil {
		err = ts.Close()
	}
	out.wall = time.Since(start)
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	out.work = r.Stats()
	out.sinkBytes = dw.n
	out.digests = []string{dw.sum()}
	if err != nil {
		out.failf("sweep: %v", err)
	} else {
		w.check(&out, results)
	}
	out.reqs = []reqSample{{lat: out.wall, ttfb: ts.first.Sub(start), ok: len(out.errs) == 0, cold: true}}
	return out, nil
}

// check compares a sweep's output with the reference: an exact grid's
// encoding against the reference digest, an approx grid's points against
// the exact run (replayed points exactly, predicted ones within the
// error bound), so a surrogate change that stays accurate still passes.
func (w *sweepWorkload) check(out *unitOut, results []sweep.Result) {
	ref := w.e.ref
	if ref == nil {
		return
	}
	if !w.in.approx() {
		if out.digests[0] != ref.Digest {
			out.failf("output digest %s, reference %s", out.digests[0], ref.Digest)
		}
		return
	}
	if len(ref.Exact) != len(results) {
		out.failf("%d results, exact reference has %d", len(results), len(ref.Exact))
		return
	}
	for i, x := range results {
		want := ref.Exact[i]
		if !x.Approx && (int64(x.TOriginal) != want[0] || int64(x.TOverlap) != want[1]) {
			out.failf("point %d replayed to %d/%d, exact run gives %d/%d", i, x.TOriginal, x.TOverlap, want[0], want[1])
		}
		out.maxRelErr = math.Max(out.maxRelErr, math.Max(relErr(float64(x.TOriginal), float64(want[0])), relErr(float64(x.TOverlap), float64(want[1]))))
	}
	if out.maxRelErr > approxBound {
		out.failf("approx max relative error %.4f over the %.2f bound", out.maxRelErr, approxBound)
	}
}

func (w *sweepWorkload) close() {}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// discardSink drops results (set-up work whose output nobody reads).
type discardSink struct{}

func (discardSink) Accept(int, sweep.Result) error { return nil }
func (discardSink) Close() error                   { return nil }

// ---- serve-mixed: closed-loop clients against an in-process server ----

// serveClients is the number of closed-loop clients: one per core of the
// machine the benchmark was sized on, never more connections than cores.
const serveClients = 2

// serveBase is the platform the served grids run on (the server default).
func serveBase() machine.Config { return machine.Default() }

type serveWorkload struct {
	e     *env
	pool  []serve.SweepRequest
	srv   *serveHandle
	cache string
	round int
	novel int // next novel grid
}

func (w *serveWorkload) setup(e *env) error {
	w.close()
	w.e = e
	w.pool = servePool(e.variant, e.scale)
	w.round, w.novel = 0, 0
	var err error
	if w.cache, err = os.MkdirTemp(e.tmp, "serve-cache-"); err != nil {
		return err
	}
	if w.srv, err = startServer(w.cache); err != nil {
		return err
	}
	// Warm the pool: the first request for each grid traces and replays it
	// into the shared cache, and its body is checked like any other.
	for i, req := range w.pool {
		s, digest := w.srv.post(context.Background(), req, nil, -1, "")
		if !s.ok {
			return fmt.Errorf("warming pool grid %d failed", i)
		}
		if e.ref != nil && digest != e.ref.Pool[i] {
			e.setupErrs = append(e.setupErrs, fmt.Sprintf("pool grid %d: body digest %s, batch encoding %s", i, digest, e.ref.Pool[i]))
		}
	}
	return nil
}

func (w *serveWorkload) unit(ctx context.Context, rec *recorder, parent int) (unitOut, error) {
	var out unitOut
	if w.e.ref != nil && w.novel+serveNovelPerRound > len(w.e.ref.Novel) {
		return out, errExhausted
	}
	order := serveOrder(w.e.seed, w.round)
	reqs := make([]serve.SweepRequest, len(order))
	want := make([]string, len(order))
	cold := make([]bool, len(order))
	for k, i := range order {
		if i < servePoolSize {
			reqs[k] = w.pool[i]
			if w.e.ref != nil {
				want[k] = w.e.ref.Pool[i]
			}
			continue
		}
		j := w.novel + i - servePoolSize
		reqs[k] = serveNovel(w.e.variant, j, w.e.scale)
		cold[k] = true
		if w.e.ref != nil {
			want[k] = w.e.ref.Novel[j]
		}
	}
	for _, req := range reqs {
		out.inputs = append(out.inputs, input{Req: req, Base: serveBase()})
	}
	w.novel += serveNovelPerRound
	w.round++

	before, err := w.srv.stats(ctx)
	if err != nil {
		return out, err
	}
	out.reqs = make([]reqSample, len(reqs))
	digests := make([]string, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s, d := w.srv.post(ctx, reqs[i], rec, parent, fmt.Sprintf("req-%d-%d", w.round-1, i))
				s.cold = cold[i]
				out.reqs[i], digests[i] = s, d
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	after, err := w.srv.stats(ctx)
	if err != nil {
		return out, err
	}
	out.work = workCounters(after.Work).Sub(workCounters(before.Work))
	out.rejected = after.Jobs.Rejected - before.Jobs.Rejected
	out.storeWrites = out.work.Replays
	out.digests = digests
	for i := range out.reqs {
		if !out.reqs[i].ok {
			out.failf("request %d: failed", i)
			continue
		}
		if want[i] != "" && digests[i] != want[i] {
			out.reqs[i].ok = false
			out.failf("request %d: body digest %s, batch encoding %s", i, digests[i], want[i])
		}
	}
	return out, nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.close()
		w.srv = nil
	}
	if w.cache != "" {
		os.RemoveAll(w.cache)
		w.cache = ""
	}
}

// workCounters converts the /stats work document back to runner counters.
func workCounters(j serve.WorkJSON) sweep.Counters {
	return sweep.Counters{
		Traces:           j.Traces,
		TraceCacheHits:   j.TraceCacheHits,
		Replays:          j.Replays,
		ReplayMemoHits:   j.ReplayMemoHits,
		ReplayStoreHits:  j.ReplayStoreHits,
		BatchedReplays:   j.BatchedReplays,
		ParallelWindows:  j.ParallelWindows,
		PredictedPoints:  j.PredictedPoints,
		SpotCheckReplays: j.SpotCheckReplays,
		DemotedFamilies:  j.DemotedFamilies,
	}
}

// ---- campaign-warm: a chunked campaign over a warm cache ----

// campaignWorkers is the number of in-process campaign workers.
const campaignWorkers = 2

type campaignWorkload struct {
	e     *env
	in    input
	grid  sweep.Grid
	cache string
	n     int
}

func (w *campaignWorkload) setup(e *env) error {
	w.e = e
	w.in = campaignInput(e.variant, e.scale)
	g, err := w.in.grid()
	if err != nil {
		return err
	}
	w.grid = g
	w.close()
	if w.cache, err = os.MkdirTemp(e.tmp, "campaign-cache-"); err != nil {
		return err
	}
	// Warm: one cold sweep fills the trace cache and the replay store the
	// campaign's workers then read.
	r := cachedRunner(w.in, w.cache, 0)
	dw := newDigestWriter()
	bs := sweep.NewBatchSink(dw, sweep.FormatCSV)
	if err := r.RunSink(g, bs); err != nil {
		return err
	}
	if err := bs.Close(); err != nil {
		return err
	}
	if e.ref != nil && dw.sum() != e.ref.Digest {
		e.setupErrs = append(e.setupErrs, fmt.Sprintf("warming sweep: digest %s, reference %s", dw.sum(), e.ref.Digest))
	}
	return nil
}

// cachedRunner is a runner over a shared cache directory, the way serve
// jobs and campaign workers run.
func cachedRunner(in input, dir string, workers int) *sweep.Runner {
	r := in.runner()
	r.Engine = sweep.Engine{Workers: workers}
	r.Cache = &sweep.TraceCache{Dir: dir}
	r.Store = &replaystore.Store{Dir: dir}
	return r
}

func (w *campaignWorkload) unit(ctx context.Context, rec *recorder, parent int) (unitOut, error) {
	w.n++
	dir := filepath.Join(w.e.tmp, fmt.Sprintf("campaign-%d", w.n))
	defer os.RemoveAll(dir)
	out, err := runCampaign(ctx, w.in, w.grid, w.cache, dir, rec, parent)
	if err != nil {
		return out, err
	}
	if w.e.ref != nil && len(out.errs) == 0 && out.digests[0] != w.e.ref.Digest {
		out.failf("assembled output digest %s, reference %s", out.digests[0], w.e.ref.Digest)
	}
	out.reqs[0].ok = len(out.errs) == 0
	return out, nil
}

func (w *campaignWorkload) close() {
	if w.cache != "" {
		os.RemoveAll(w.cache)
		w.cache = ""
	}
}

// runCampaign runs the grid as a campaign of 4-point chunks in dir with
// in-process workers over the cache, assembles it and encodes the result.
func runCampaign(ctx context.Context, in input, g sweep.Grid, cache, dir string, rec *recorder, parent int) (unitOut, error) {
	out := unitOut{inputs: []input{in}}
	start := time.Now()
	coord, err := campaign.New(campaign.Config{
		Signature:   sweep.Signature(g, in.Base, in.Req.Size, in.Req.Iters),
		Total:       g.Size(),
		ChunkPoints: campaign.DefaultChunkPoints,
		Dir:         dir,
	})
	if err != nil {
		return out, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	chunks := coord.Counters().Chunks
	for i := 0; i < campaignWorkers; i++ {
		id := fmt.Sprintf("local-%d", i)
		wk := &campaign.Worker{
			Board:     &timedBoard{inner: &campaign.LocalBoard{C: coord, Worker: id}, rec: rec, parent: parent},
			ID:        id,
			Runner:    cachedRunner(in, cache, 1),
			Grid:      g,
			Signature: sweep.Signature(g, in.Base, in.Req.Size, in.Req.Iters),
			Total:     g.Size(),
			NumChunks: chunks,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wk.Run(runCtx); err != nil && runCtx.Err() == nil {
				errMu.Lock()
				out.failf("worker %s: %v", id, err)
				errMu.Unlock()
			}
		}()
	}
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	// Like the CLI: once every chunk is settled, stop the workers instead of
	// letting an idle one sleep out its poll interval.
	select {
	case <-coord.Done():
	case <-workersDone:
	case <-ctx.Done():
	}
	cancel()
	<-workersDone
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	if err := coord.Err(); err != nil {
		out.failf("%v", err)
	}
	h := rec.start("campaign.assemble", parent, "")
	results, err := coord.Assemble()
	rec.stop(h)
	dw := newDigestWriter()
	// The campaign's output reaches its user the way the CLI writes it:
	// assembled results through a batch sink, after the last chunk.
	ts := &timedSink{inner: sweep.NewBatchSink(dw, sweep.FormatCSV), rec: rec, parent: parent}
	if err != nil {
		out.failf("assemble: %v", err)
	} else {
		for i, x := range results {
			if err = ts.Accept(i, x); err != nil {
				break
			}
		}
		if err == nil {
			err = ts.Close()
		}
		if err != nil {
			out.failf("encode: %v", err)
		}
	}
	out.wall = time.Since(start)
	out.camp = coord.Counters()
	out.work = out.camp.Work
	out.storeWrites = out.work.Replays
	out.sinkBytes = dw.n
	out.digests = []string{dw.sum()}
	ttfb := out.wall
	if !ts.first.IsZero() {
		ttfb = ts.first.Sub(start)
	}
	out.reqs = []reqSample{{lat: out.wall, ttfb: ttfb, ok: len(out.errs) == 0}}
	return out, nil
}
