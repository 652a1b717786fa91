package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"overlapsim/internal/campaign"
	"overlapsim/internal/cliflag"
	"overlapsim/internal/machine"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

// sweepSpec is what a sweep computes: its grid, base platform and
// workload scale. sweep, campaign and worker read it from one flag group.
type sweepSpec struct {
	grid        sweep.Grid
	base        machine.Config
	size, iters int
}

// registerSweepSpec adds the sweep-spec flag group to fs: the grid axes,
// -size, -iters and the platform flags. The returned function resolves
// and validates them once fs is parsed.
func registerSweepSpec(fs *flag.FlagSet) func() (sweepSpec, error) {
	axes := cliflag.RegisterSweepAxes(fs)
	size := fs.Int("size", 0, "problem size for every app (0 = app default)")
	iters := fs.Int("iters", 0, "iterations for every app (0 = app default)")
	mf := cliflag.RegisterMachine(fs)
	return func() (sweepSpec, error) {
		base, err := mf.Config()
		if err != nil {
			return sweepSpec{}, err
		}
		grid, err := axes.Grid()
		if err != nil {
			return sweepSpec{}, err
		}
		if err := grid.Validate(); err != nil {
			return sweepSpec{}, err
		}
		return sweepSpec{grid: grid, base: base, size: *size, iters: *iters}, nil
	}
}

// parseSweepSpec parses a campaign's sweep specification — the arguments
// after `--` on the campaign command line, distributed verbatim to
// workers over GET /campaign/spec. Coordinator and every worker run the
// spec through this one parser, and the sweep signature double-checks
// that they agreed.
func parseSweepSpec(args []string) (sweepSpec, error) {
	fs := flag.NewFlagSet("sweep spec", flag.ContinueOnError)
	resolve := registerSweepSpec(fs)
	if err := fs.Parse(args); err != nil {
		return sweepSpec{}, err
	}
	if fs.NArg() != 0 {
		return sweepSpec{}, fmt.Errorf("sweep spec takes no positional arguments (got %q)", fs.Args())
	}
	return resolve()
}

// signature is the sweep signature of the spec.
func (s sweepSpec) signature() string { return sweep.Signature(s.grid, s.base, s.size, s.iters) }

// runner builds a fresh runner for the spec, over cacheDir's trace cache
// and replay store when cacheDir is set. Each campaign worker gets its
// own runner so per-chunk work accounting stays attributable; the
// disk-level caches still share everything.
func (s sweepSpec) runner(pool int, cacheDir string, ap *cliflag.Approx, warn func(string)) *sweep.Runner {
	r := sweep.NewRunner(s.base)
	r.Size = s.size
	r.Iters = s.iters
	r.Engine = sweep.Engine{Workers: pool}
	ap.Apply(r)
	if cacheDir != "" {
		r.Cache = &sweep.TraceCache{Dir: cacheDir, Warn: warn}
		r.Store = &replaystore.Store{Dir: cacheDir, Warn: warn}
	}
	return r
}

// runCampaign is the fault-tolerant sweep driver: a coordinator that
// journals chunk state durably in -dir, leases chunks to workers (local
// goroutines and/or spawned `overlapsim worker` processes), survives
// worker crashes via heartbeat-expiry + retry/backoff, and — after its
// own crash — finishes only the remainder under -resume. The final
// output is byte-identical to the same sweep run unsharded.
func runCampaign(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	dir := fs.String("dir", "campaign-work", "campaign directory: durable journal + per-chunk result files (survives crashes; required for -resume)")
	resume := fs.Bool("resume", false, "resume the interrupted campaign journaled in -dir, completing only unfinished chunks")
	addr := fs.String("addr", "", "coordinator listen address for remote `overlapsim worker` processes (empty = only when -spawn > 0, on localhost:0)")
	localWorkers := fs.Int("local-workers", 0, "in-process worker goroutines (0 = one per CPU when nothing else is configured, else none)")
	spawn := fs.Int("spawn", 0, "spawn this many `overlapsim worker` child processes against the coordinator")
	workerPool := fs.Int("workers", 1, "worker-pool size inside each worker (forwarded to spawned workers)")
	chunkPoints := fs.Int("chunk-points", campaign.DefaultChunkPoints, "points per lease chunk (smaller steals better, larger amortises overhead)")
	leaseTTL := fs.Duration("lease-ttl", campaign.DefaultLeaseTTL, "lease lifetime without a heartbeat; a crashed worker's chunk is re-leased after this")
	maxAttempts := fs.Int("max-attempts", campaign.DefaultMaxAttempts, "quarantine a chunk after this many failed leases instead of retrying forever")
	backoffBase := fs.Duration("backoff-base", campaign.DefaultBackoffBase, "first retry delay for a failed chunk")
	backoffCap := fs.Duration("backoff-cap", campaign.DefaultBackoffCap, "upper bound on the exponential retry delay")
	backoffSeed := fs.Uint64("backoff-seed", 0, "seed for the deterministic retry jitter")
	maxRespawns := fs.Int("max-respawns", 64, "total respawn budget for crashed spawned workers")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory shared by every worker: traces and replay results")
	format := fs.String("format", "table", "output format: table, csv or json")
	out := fs.String("o", "", "write results to this file instead of stdout")
	fs.StringVar(out, "out", "", "alias for -o")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown drain for the coordinator's HTTP listener")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate forwarded to spawned workers (0 disables)")
	chaosMode := fs.String("chaos-mode", "crash", "fault to inject in spawned workers: crash, stall, drop or mix")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for the deterministic fault-injection schedule (worker i gets seed+i)")
	ap := cliflag.RegisterApprox(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := ap.Validate(); err != nil {
		return err
	}
	// Everything after `--` is the sweep spec; the flag package stops
	// there, so fs.Args() is exactly the spec.
	spec, err := parseSweepSpec(fs.Args())
	if err != nil {
		return err
	}
	if _, err := campaign.ParseChaosMode(*chaosMode); err != nil {
		return err
	}
	f, err := sweep.ParseFormat(*format)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "campaign: "+format+"\n", a...)
	}
	warn := func(msg string) { logf("warning: %s", msg) }

	sig := spec.signature()
	total := spec.grid.Size()
	ccfg := campaign.Config{
		Signature:   sig,
		Total:       total,
		ChunkPoints: *chunkPoints,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		Backoff:     campaign.Backoff{Base: *backoffBase, Cap: *backoffCap, Seed: *backoffSeed},
		Dir:         *dir,
		Logf:        logf,
	}
	var coord *campaign.Coordinator
	if *resume {
		if coord, err = campaign.Resume(ccfg); err != nil {
			return err
		}
		ct := coord.Counters()
		logf("resuming %s: %d/%d chunks already done (%d adopted from surviving result files)", *dir, ct.Done, ct.Chunks, ct.Adopted)
	} else {
		if coord, err = campaign.New(ccfg); err != nil {
			return err
		}
		logf("sweep %s: %d points in %d chunks of up to %d (journal: %s)", sig, total, ct0(coord), *chunkPoints, *dir)
	}

	done := func() bool {
		select {
		case <-coord.Done():
			return true
		default:
			return false
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !done() {
		// Nothing configured explicitly: default to a local goroutine pool.
		if *localWorkers == 0 && *spawn == 0 && *addr == "" {
			*localWorkers = sweep.Engine{}.WorkerCount()
		}

		// Coordinator endpoint for remote/spawned workers.
		var baseURL string
		var httpSrv *http.Server
		if *addr != "" || *spawn > 0 {
			listen := *addr
			if listen == "" {
				listen = "localhost:0"
			}
			ln, err := net.Listen("tcp", listen)
			if err != nil {
				return err
			}
			baseURL = "http://" + ln.Addr().String()
			httpSrv = &http.Server{Handler: campaign.NewServer(coord, fs.Args()).Handler()}
			go func() {
				if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
					logf("coordinator http: %v", err)
				}
			}()
			logf("coordinator listening on %s", baseURL)
			defer func() {
				if err := serve.Drain(httpSrv, *drainTimeout); err != nil {
					logf("shutdown: %v", err)
				}
			}()
		}

		var wg sync.WaitGroup

		// Local goroutine workers share the process but each has its own
		// runner, so chunk work accounting stays exact.
		for i := 0; i < *localWorkers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				id := fmt.Sprintf("local-%d", i)
				w := &campaign.Worker{
					Board:     &campaign.LocalBoard{C: coord, Worker: id},
					ID:        id,
					Runner:    spec.runner(*workerPool, *cacheDir, ap, warn),
					Grid:      spec.grid,
					Signature: sig,
					Total:     total,
					NumChunks: ct0(coord),
					Logf:      logf,
				}
				if err := w.Run(ctx); err != nil && ctx.Err() == nil {
					logf("worker %s: %v", id, err)
				}
			}(i)
		}

		// Spawned worker processes, respawned (within budget) when they die
		// before the campaign is over — which -chaos makes routine.
		var respawns atomic.Int64
		for i := 0; i < *spawn; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for {
					if done() || ctx.Err() != nil {
						return
					}
					cmd := exec.CommandContext(ctx, os.Args[0], spawnArgs(i, baseURL, *cacheDir, *workerPool, ap, *chaosRate, *chaosMode, *chaosSeed)...)
					cmd.Stdout = os.Stderr
					cmd.Stderr = os.Stderr
					err := cmd.Run()
					if err == nil || done() || ctx.Err() != nil {
						return
					}
					if n := respawns.Add(1); n > int64(*maxRespawns) {
						logf("worker spawn-%d died (%v) and the respawn budget (%d) is spent; leaving the slot empty", i, err, *maxRespawns)
						return
					}
					logf("worker spawn-%d died (%v); respawning", i, err)
				}
			}(i)
		}

		workersDone := make(chan struct{})
		go func() { wg.Wait(); close(workersDone) }()
		select {
		case <-ctx.Done():
			logf("interrupted; journal kept in %s — finish with: overlapsim campaign -resume -dir %s ...", *dir, *dir)
			<-workersDone
			return fmt.Errorf("interrupted: campaign unfinished (resume with -resume)")
		case <-coord.Done():
			// Settled (all chunks done or quarantined). Workers drain on
			// their next lease poll; don't hold the final merge hostage.
			stop()
		case <-workersDone:
			if !done() {
				return fmt.Errorf("all workers exited but %d chunks are unfinished; resume with -resume", unfinished(coord))
			}
		}
	}

	if err := coord.Err(); err != nil {
		logf("journal and per-chunk results kept in %s for post-mortem", *dir)
		return err
	}
	results, err := coord.Assemble()
	if err != nil {
		return err
	}
	ct := coord.Counters()
	logf("chunks: %d total, %d done (%d adopted), %d leases, %d expired, %d failures, %d stale completions, %d duplicates, %d quarantined",
		ct.Chunks, ct.Done, ct.Adopted, ct.Leases, ct.Expired, ct.Failures, ct.StaleCompletions, ct.Duplicates, ct.Quarantined)
	fmt.Fprintf(os.Stderr, "campaign: work: %s\n", ct.Work.Line(ap.Enabled))

	w, closeOut := outputTarget(stdout, *out)
	if err := sweep.Write(w, f, results, ap.Enabled); err != nil {
		return err
	}
	return closeOut()
}

// ct0 is the campaign's chunk count (fixed at creation).
func ct0(c *campaign.Coordinator) int { return c.Counters().Chunks }

// unfinished counts chunks that are neither done nor quarantined.
func unfinished(c *campaign.Coordinator) int {
	ct := c.Counters()
	return ct.Chunks - ct.Done - ct.Quarantined
}

// spawnArgs builds a spawned worker's command line. Worker i gets chaos
// seed+i so the processes fail on distinct, still-deterministic schedules.
func spawnArgs(i int, baseURL, cacheDir string, pool int, ap *cliflag.Approx, chaosRate float64, chaosMode string, chaosSeed uint64) []string {
	args := []string{"worker",
		"-coordinator", baseURL,
		"-id", fmt.Sprintf("spawn-%d", i),
		"-workers", strconv.Itoa(pool),
	}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	if ap.Enabled {
		args = append(args, "-approx",
			"-approx-maxerr", strconv.FormatFloat(ap.MaxErr, 'g', -1, 64),
			"-approx-spotcheck", strconv.FormatFloat(ap.SpotCheck, 'g', -1, 64),
		)
	}
	if chaosRate > 0 {
		args = append(args,
			"-chaos", strconv.FormatFloat(chaosRate, 'g', -1, 64),
			"-chaos-mode", chaosMode,
			"-chaos-seed", strconv.FormatUint(chaosSeed+uint64(i), 10),
		)
	}
	return args
}

// runWorker joins a campaign as a pull worker: fetch the sweep spec from
// the coordinator, re-parse it with the shared parser, verify the
// signature, then lease-run-report chunks until the coordinator answers
// "campaign complete" (exit 0). With -chaos it injects crash/stall/drop
// failures on a seeded, reproducible schedule.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	coordURL := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://localhost:8678")
	id := fs.String("id", "", "worker id in leases and logs (default worker-<pid>)")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory: traces and replay results")
	pool := fs.Int("workers", 0, "worker-pool size for this worker's points (0 = one per CPU)")
	chaosRate := fs.Float64("chaos", 0, "fault-injection rate in [0,1] (0 disables)")
	chaosMode := fs.String("chaos-mode", "crash", "fault to inject: crash, stall, drop or mix")
	chaosSeed := fs.Uint64("chaos-seed", 1, "seed for the deterministic fault-injection schedule")
	ap := cliflag.RegisterApprox(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("worker takes no positional arguments (got %q)", fs.Args())
	}
	if err := ap.Validate(); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("worker needs -coordinator URL")
	}
	mode, err := campaign.ParseChaosMode(*chaosMode)
	if err != nil {
		return err
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "worker "+*id+": "+format+"\n", a...)
	}
	warn := func(msg string) { logf("warning: %s", msg) }

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &campaign.Client{
		Base:   *coordURL,
		Worker: *id,
		Retry:  serve.Retry{Attempts: 5, Wait: 200 * time.Millisecond},
	}
	spec, err := client.Spec(ctx)
	if err != nil {
		return err
	}
	ss, err := parseSweepSpec(spec.Args)
	if err != nil {
		return fmt.Errorf("parsing the coordinator's sweep spec: %w", err)
	}
	// The signature is the skew tripwire: if this build expands the spec
	// differently than the coordinator's, running would waste work and the
	// completions would be rejected anyway — refuse up front.
	if sig := ss.signature(); sig != spec.Signature {
		return fmt.Errorf("sweep spec disagreement: coordinator signed %s, this worker computes %s (mismatched builds?)", spec.Signature, sig)
	}
	logf("joined campaign %s: %d points, %d chunks", spec.Signature, spec.Total, spec.Chunks)

	w := &campaign.Worker{
		Board:     client,
		ID:        *id,
		Runner:    ss.runner(*pool, *cacheDir, ap, warn),
		Grid:      ss.grid,
		Signature: spec.Signature,
		Total:     spec.Total,
		NumChunks: spec.Chunks,
		Chaos:     campaign.Chaos{Rate: *chaosRate, Seed: *chaosSeed, Mode: mode},
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}
	if err := w.Run(ctx); err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted")
		}
		return err
	}
	logf("campaign complete")
	return nil
}
