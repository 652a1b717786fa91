package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"overlapsim/internal/machine"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

// Config configures a sweep service.
type Config struct {
	// Base is the platform every request's points start from (the
	// daemon's platform flags); the zero value means machine.Default().
	Base machine.Config
	// CacheDir, when non-empty, is the shared persistent cache directory:
	// one TraceCache and one replaystore.Store over it serve every
	// request, so repeat queries are warm hits doing zero instrumented
	// runs and zero replays.
	CacheDir string
	// ResultsDir, when non-empty, additionally copies each job's streamed
	// body into <ResultsDir>/<job-id>.<ext> — the same bytes the client
	// received, kept server-side. Best-effort: a failed file is logged
	// once and abandoned, and never fails the request.
	ResultsDir string
	// MaxConcurrent bounds how many sweeps run at once (min 1).
	MaxConcurrent int
	// MaxQueued bounds how many admitted requests may wait for a run
	// slot; a request beyond both limits is rejected with 429.
	MaxQueued int
	// SweepWorkers is each job's engine pool size (0 = one per CPU).
	SweepWorkers int
	// Approx turns on the surrogate fast path for every job by default:
	// dense numeric axes are thinned to replayed anchors and the rest of
	// each family is interpolated within ApproxMaxErr. A request may
	// override this per job with its "approx" field.
	Approx bool
	// ApproxMaxErr is the relative error bound for surrogate predictions
	// (0 = sweep.DefaultApproxMaxErr).
	ApproxMaxErr float64
	// ApproxSpotCheck is the fraction of predicted points per family that
	// are spot-replayed to validate the bound (0 =
	// sweep.DefaultApproxSpotCheck).
	ApproxSpotCheck float64
	// MaxPoints, when positive, rejects grids that expand to more points
	// with 413 — an admission guard against a single request that would
	// monopolize the service for hours.
	MaxPoints int
	// Logf, when non-nil, receives one-line operational diagnostics
	// (job lifecycle, cache warnings). Nil discards them.
	Logf func(format string, args ...any)
}

// Server is the sweep service: an http.Handler exposing sweep submission
// with streamed ordered results, per-job status and cancel, admission
// control, and shared-cache statistics. See docs/API.md for the wire
// contract.
type Server struct {
	cfg   Config
	cache *sweep.TraceCache
	store *replaystore.Store
	queue *queue
	start time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	// Lifetime accounting; work aggregates every finished job's runner
	// counters, so /stats tells warm from cold traffic at a glance.
	submitted, rejected, completed, failed, canceled int64
	work                                             sweep.Counters

	// runHook, when non-nil, replaces the sweep execution of admitted
	// jobs — the test seam for admission and cancellation, which need a
	// job that blocks until told.
	runHook func(ctx context.Context, jb *job) error
}

// New returns a server for the config.
func New(cfg Config) *Server {
	if cfg.Base.Nodes == 0 {
		cfg.Base = machine.Default()
	}
	s := &Server{
		cfg:   cfg,
		queue: newQueue(cfg.MaxConcurrent, cfg.MaxQueued),
		start: time.Now(),
		jobs:  map[string]*job{},
	}
	if cfg.CacheDir != "" {
		warn := func(msg string) { s.logf("cache warning: %s", msg) }
		s.cache = &sweep.TraceCache{Dir: cfg.CacheDir, Warn: warn}
		s.store = &replaystore.Store{Dir: cfg.CacheDir, Warn: warn}
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", s.handleSubmit)
	mux.HandleFunc("GET /sweeps", s.handleList)
	mux.HandleFunc("GET /sweeps/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", HealthzHandler(s.start))
	return mux
}

// CancelAll cancels every job that has not finished — the daemon's
// shutdown path, so a terminating server leaves well-formed partial
// bodies rather than hung connections.
func (s *Server) CancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, jb := range s.jobs {
		if !jb.State().Terminal() && jb.cancel != nil {
			jb.cancel()
		}
	}
}

// approxSettings is one job's resolved surrogate fast path knobs: the
// request's overrides where present, the server's defaults otherwise.
type approxSettings struct {
	enabled   bool
	maxErr    float64
	spotCheck float64
}

// approxFor resolves a request's surrogate knobs against the server
// config.
func (s *Server) approxFor(req SweepRequest) approxSettings {
	a := approxSettings{
		enabled:   s.cfg.Approx,
		maxErr:    s.cfg.ApproxMaxErr,
		spotCheck: s.cfg.ApproxSpotCheck,
	}
	if req.Approx != nil {
		a.enabled = *req.Approx
	}
	if req.ApproxMaxErr > 0 {
		a.maxErr = req.ApproxMaxErr
	}
	if req.ApproxSpotCheck > 0 {
		a.spotCheck = req.ApproxSpotCheck
	}
	return a
}

// register creates and records a job in state queued.
func (s *Server) register(grid sweep.Grid, points int, f sweep.Format, size, iters int, approx approxSettings, cancel context.CancelFunc) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.submitted++
	jb := &job{
		id:      fmt.Sprintf("job-%d", s.nextID),
		grid:    grid,
		points:  points,
		format:  f,
		size:    size,
		iters:   iters,
		approx:  approx,
		created: time.Now(),
		cancel:  cancel,
		state:   JobQueued,
	}
	s.jobs[jb.id] = jb
	s.order = append(s.order, jb.id)
	return jb
}

// unregister removes a job that was rejected at admission — it never ran,
// so it should not linger in listings.
func (s *Server) unregister(jb *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, jb.id)
	for i, id := range s.order {
		if id == jb.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.submitted--
}

// noteFinished folds a terminal job into the lifetime accounting.
func (s *Server) noteFinished(jb *job) {
	jb.mu.Lock()
	state, work := jb.state, jb.work
	jb.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch state {
	case JobDone:
		s.completed++
	case JobFailed:
		s.failed++
	case JobCanceled:
		s.canceled++
	}
	s.work = s.work.Add(work)
}

// lookup finds a job by id.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// handleSubmit is POST /sweeps: decode, validate, admit, run, stream.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeSweepRequest(r.Body)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	grid, err := req.Grid()
	if err == nil {
		err = grid.Validate()
	}
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	format, err := req.ResponseFormat()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	if err := req.ValidateApprox(); err != nil {
		WriteError(w, http.StatusBadRequest, "%s", err)
		return
	}
	total := grid.Size()
	if s.cfg.MaxPoints > 0 && total > s.cfg.MaxPoints {
		WriteError(w, http.StatusRequestEntityTooLarge,
			"grid expands to %d points, over the server's %d-point limit; split the request", total, s.cfg.MaxPoints)
		return
	}

	// The job's context is the request's (a client that hangs up cancels
	// its sweep) plus the cancel handle DELETE and CancelAll pull.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	jb := s.register(grid, total, format, req.Size, req.Iters, s.approxFor(req), cancel)
	s.logf("%s: submitted: %d points, format %s", jb.id, total, format)

	if err := s.queue.Admit(ctx); err != nil {
		if errors.Is(err, ErrBusy) {
			s.unregister(jb)
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
			s.logf("%s: rejected: at capacity", jb.id)
			w.Header().Set("Retry-After", "1")
			WriteJSON(w, http.StatusTooManyRequests, ErrorJSON{ErrBusy.Error()})
			return
		}
		// Cancelled while waiting in the queue: the job never ran.
		jb.finish(JobCanceled, "", sweep.Counters{})
		s.noteFinished(jb)
		s.logf("%s: canceled while queued", jb.id)
		WriteJSON(w, http.StatusConflict, jb.Status())
		return
	}
	defer s.queue.Release()
	jb.setState(JobRunning, "")

	if s.runHook != nil {
		s.finishHooked(w, jb, ctx, s.runHook(ctx, jb))
		return
	}
	s.runJob(w, jb, ctx)
}

// finishHooked finalizes a test-hooked job with the real state logic but
// a plain-text body.
func (s *Server) finishHooked(w http.ResponseWriter, jb *job, ctx context.Context, err error) {
	switch {
	case ctx.Err() != nil:
		jb.finish(JobCanceled, "", sweep.Counters{})
	case err != nil:
		jb.finish(JobFailed, err.Error(), sweep.Counters{})
	default:
		jb.finish(JobDone, "", sweep.Counters{})
	}
	s.noteFinished(jb)
	WriteJSON(w, http.StatusOK, jb.Status())
}

// contentType maps a sweep format to its media type.
func contentType(f sweep.Format) string {
	switch f {
	case sweep.FormatCSV:
		return "text/csv; charset=utf-8"
	case sweep.FormatJSON:
		return "application/json"
	default:
		return "text/plain; charset=utf-8"
	}
}

// resultExt maps a sweep format to the results-dir file extension.
func resultExt(f sweep.Format) string {
	switch f {
	case sweep.FormatCSV:
		return "csv"
	case sweep.FormatJSON:
		return "json"
	default:
		return "txt"
	}
}

// Streaming trailer names: the job verdict arrives after the body, since
// a streamed sweep can only know how it ended once it has ended.
const (
	trailerStatus = "X-Overlapsim-Status"
	trailerError  = "X-Overlapsim-Error"
)

// runJob executes one admitted sweep, streaming ordered results onto the
// connection. The response body is produced by the same OrderedSink the
// CLI's -stream-ordered uses, so a completed job's body is byte-identical
// to the batch CLI output for the same grid — and a canceled or failed
// job's body is a well-formed partial encoding (the finished prefix of
// grid order), terminated by Close.
func (s *Server) runJob(w http.ResponseWriter, jb *job, ctx context.Context) {
	runner := sweep.NewRunner(s.cfg.Base)
	runner.Size = jb.size
	runner.Iters = jb.iters
	runner.Approx = jb.approx.enabled
	runner.ApproxMaxErr = jb.approx.maxErr
	runner.ApproxSpotCheck = jb.approx.spotCheck
	runner.Engine = sweep.Engine{
		Workers:  s.cfg.SweepWorkers,
		Progress: func(done, total int) { jb.completed.Store(int64(done)) },
	}
	// Every job shares the server's one trace cache and replay store:
	// that sharing is the service's whole economy — the first request
	// pays for a workload's trace and replays, every later request
	// answering from disk.
	runner.Cache = s.cache
	runner.Store = s.store

	h := w.Header()
	h.Set("Content-Type", contentType(jb.format))
	h.Set("X-Overlapsim-Job", jb.id)
	h.Set("X-Overlapsim-Points", strconv.Itoa(jb.points))
	h.Set("Trailer", trailerStatus+", "+trailerError)
	w.WriteHeader(http.StatusOK)

	// One ordered sink encodes the body once; the writer copies it,
	// best-effort, into the results-dir file.
	body := &bodyWriter{conn: w}
	if f, ok := w.(http.Flusher); ok {
		body.flush = f
	}
	if s.cfg.ResultsDir != "" {
		if err := os.MkdirAll(s.cfg.ResultsDir, 0o777); err != nil {
			s.logf("%s: results dir: %v", jb.id, err)
		} else if f, err := os.Create(filepath.Join(s.cfg.ResultsDir, jb.id+"."+resultExt(jb.format))); err != nil {
			s.logf("%s: results file: %v", jb.id, err)
		} else {
			body.file = f
			body.fileErr = func(err error) { s.logf("%s: results file: %v", jb.id, err) }
		}
	}
	sink := sweep.NewOrderedSink(body, jb.format, jb.grid.Expand(), nil)
	sink.SetApprox(jb.approx.enabled)

	err := runner.RunSinkContext(ctx, jb.grid, sink)
	// Close terminates the encoding around the flushed prefix no matter
	// how the run ended: a complete body on success, a well-formed
	// partial one on cancel or failure.
	cerr := sink.Close()
	if err == nil && cerr != nil {
		err = cerr
	}
	if body.file != nil {
		if ferr := body.file.Close(); ferr != nil {
			body.fileErr(ferr)
		}
	}
	if serr := runner.CacheStoreErr(); serr != nil {
		s.logf("%s: cache not updated (next request recomputes): %v", jb.id, serr)
	}

	work := runner.Stats()
	status := "ok"
	switch {
	case ctx.Err() != nil:
		jb.finish(JobCanceled, "", work)
		status = "canceled"
	case err != nil:
		jb.finish(JobFailed, err.Error(), work)
		status = "failed"
		// A recovered panic fails only this job; its stack goes to the log
		// rather than into the one-line status.
		var pe *sweep.PanicError
		if errors.As(err, &pe) {
			s.logf("%s: %v\n%s", jb.id, err, pe.Stack)
		}
	default:
		jb.finish(JobDone, "", work)
	}
	s.noteFinished(jb)
	s.logf("%s: %s: %d/%d points; work: %s", jb.id, status, jb.completed.Load(), jb.points, work.Line(jb.approx.enabled))
	h.Set(trailerStatus, status)
	if st := jb.Status(); st.Error != "" {
		h.Set(trailerError, st.Error)
	}
}

// handleStatus is GET /sweeps/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		WriteJSON(w, http.StatusNotFound, ErrorJSON{fmt.Sprintf("no such job %q", r.PathValue("id"))})
		return
	}
	WriteJSON(w, http.StatusOK, jb.Status())
}

// handleCancel is DELETE /sweeps/{id}: cancel a queued or running job
// through the same context-cancellation path SIGINT uses in the CLI —
// claimed points finish, the streamed body is terminated as a well-formed
// partial encoding, and the job reports canceled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb := s.lookup(r.PathValue("id"))
	if jb == nil {
		WriteJSON(w, http.StatusNotFound, ErrorJSON{fmt.Sprintf("no such job %q", r.PathValue("id"))})
		return
	}
	if jb.State().Terminal() {
		WriteJSON(w, http.StatusConflict, ErrorJSON{fmt.Sprintf("job %s already %s", jb.id, jb.State())})
		return
	}
	jb.cancel()
	s.logf("%s: cancel requested", jb.id)
	WriteJSON(w, http.StatusAccepted, jb.Status())
}

// handleList is GET /sweeps: every known job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, out)
}

// StatsJSON is the document GET /stats returns: lifetime job accounting
// and the aggregated runner counters of every finished job — the
// service-level `sweep: work:` line. Warm traffic shows replay_store_hits
// growing while traces and replays stand still.
type StatsJSON struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Rejected  int64 `json:"rejected"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Canceled  int64 `json:"canceled"`
		Running   int   `json:"running"`
		Queued    int   `json:"queued"`
	} `json:"jobs"`
	Work          WorkJSON `json:"work"`
	UptimeSeconds int64    `json:"uptime_seconds"`
}

// handleStats is GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var st StatsJSON
	s.mu.Lock()
	st.Jobs.Submitted = s.submitted
	st.Jobs.Rejected = s.rejected
	st.Jobs.Completed = s.completed
	st.Jobs.Failed = s.failed
	st.Jobs.Canceled = s.canceled
	for _, jb := range s.jobs {
		switch jb.State() {
		case JobRunning:
			st.Jobs.Running++
		case JobQueued:
			st.Jobs.Queued++
		}
	}
	st.Work = s.work
	s.mu.Unlock()
	st.UptimeSeconds = int64(time.Since(s.start).Seconds())
	WriteJSON(w, http.StatusOK, st)
}

// bodyWriter carries a job's encoded body. Each write goes to the
// connection and is flushed at once, so every prefix the ordered sink
// flushes reaches the client as it completes; a connection error fails
// the job. With a results file open, the bytes the client received are
// copied into it too. That copy is best-effort: its first error is
// reported once through fileErr, and the file is dropped.
type bodyWriter struct {
	conn    io.Writer
	flush   http.Flusher
	file    *os.File
	fileErr func(error)
}

func (b *bodyWriter) Write(p []byte) (int, error) {
	n, err := b.conn.Write(p)
	if b.flush != nil {
		b.flush.Flush()
	}
	if b.file != nil {
		if _, ferr := b.file.Write(p[:n]); ferr != nil {
			b.fileErr(ferr)
			// The write error is the one reported; the file is abandoned.
			_ = b.file.Close()
			b.file = nil
		}
	}
	return n, err
}
