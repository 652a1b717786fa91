package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"overlapsim/internal/cliflag"
	"overlapsim/internal/serve"
)

// runServe starts the sweep daemon: an HTTP server over internal/serve
// that accepts sweep grids, streams ordered results, and shares one
// persistent cache across every request. The wire contract is documented
// in docs/API.md, operations in docs/OPERATIONS.md.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8677", "listen address")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory shared by every request: traces and replay results (strongly recommended; without it every request recomputes)")
	resultsDir := fs.String("results-dir", "", "also write each job's streamed output to <dir>/<job-id>.<ext>")
	maxConcurrent := fs.Int("max-concurrent", 1, "sweeps running at once; further requests queue")
	maxQueued := fs.Int("max-queued", 4, "requests waiting for a run slot; beyond this new requests get 429")
	maxPoints := fs.Int("max-points", 0, "reject grids expanding to more points with 413 (0 = no limit)")
	workers := fs.Int("workers", 0, "each sweep's worker-pool size (0 = one per CPU); results are identical for any value")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain: how long in-flight requests may finish after SIGINT/SIGTERM before the listener is torn down")
	quiet := fs.Bool("quiet", false, "suppress per-job log lines on stderr")
	ap := cliflag.RegisterApprox(fs)
	mf := cliflag.RegisterMachine(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}
	if err := ap.Validate(); err != nil {
		return err
	}
	cfg, err := mf.Config()
	if err != nil {
		return err
	}

	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
	}
	scfg := serve.Config{
		Base:            cfg,
		CacheDir:        *cacheDir,
		ResultsDir:      *resultsDir,
		MaxConcurrent:   *maxConcurrent,
		MaxQueued:       *maxQueued,
		MaxPoints:       *maxPoints,
		SweepWorkers:    *workers,
		Approx:          ap.Enabled,
		ApproxMaxErr:    ap.MaxErr,
		ApproxSpotCheck: ap.SpotCheck,
	}
	if !*quiet {
		scfg.Logf = logf
	}
	srv := serve.New(scfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on http://%s (platform %s)", ln.Addr(), cfg)
	if *cacheDir == "" {
		logf("warning: no -cache-dir: nothing persists, every request recomputes")
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	// SIGINT/SIGTERM: stop accepting, cancel every live job (their
	// streamed bodies are terminated as well-formed partials), then drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logf("shutting down (drain timeout %s)", *drainTimeout)
		srv.CancelAll()
		if err := serve.Drain(httpSrv, *drainTimeout); err != nil {
			logf("shutdown: %v", err)
		}
	}()
	err = httpSrv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		<-done
		return nil
	}
	return err
}
