// Command overlapsim runs the simulation environment: it lists the bundled
// applications and experiments, regenerates the paper's evaluation, and
// runs one-off overlap studies.
//
// Usage:
//
//	overlapsim list
//	overlapsim run <experiment-id>|all [-quick] [-workers N] [platform flags]
//	overlapsim study -app <name> [-ranks N -size N -iters N -chunks N]
//	                 [-pattern real|linear] [-width N] [platform flags]
//	overlapsim sweep -apps <a,b,...> [-ranks N,...] [-bws BW,...] [-chunks N,...]
//	                 [-mechs M,...] [-patterns P,...]
//	                 [-latencies D,...] [-buscounts N,...] [-rpns N,...]
//	                 [-eagers B,...] [-colls log,linear]
//	                 [-size N] [-iters N]
//	                 [-workers N] [-format table|csv|json] [-o|-out file]
//	                 [-shard k/N] [-cache-dir dir] [-progress] [-stream]
//	                 [-stream-ordered] [-approx [-approx-maxerr F] [-approx-spotcheck F]]
//	                 [platform flags]
//	overlapsim tracegen [-pattern ring|stencil2d|alltoall|masterworker|randomsparse]
//	                 [-ranks N -iters N -msg B -msg-dist D -comp N -comp-dist D]
//	                 [-imb F -jit F -deg N -seed N] | [-spec gen:...]
//	                 [-chunks N] [-variant V] [-o|-out file] [-replay [platform flags]]
//	overlapsim merge [-format table|csv|json] [-o|-out file] <shard.json> ...
//	overlapsim campaign [-dir dir] [-resume] [-addr host:port] [-local-workers N]
//	                 [-spawn N] [-workers N] [-chunk-points N] [-lease-ttl D]
//	                 [-max-attempts N] [-backoff-base D] [-backoff-cap D] [-backoff-seed N]
//	                 [-cache-dir dir] [-format table|csv|json] [-o|-out file]
//	                 [-chaos F -chaos-mode crash|stall|drop|mix -chaos-seed N]
//	                 -- <sweep spec: axis/platform/-size/-iters flags>
//	overlapsim worker -coordinator URL [-id name] [-cache-dir dir] [-workers N]
//	                 [-chaos F -chaos-mode M -chaos-seed N]
//	overlapsim serve [-addr host:port] [-cache-dir dir] [-results-dir dir]
//	                 [-max-concurrent N] [-max-queued N] [-max-points N]
//	                 [-workers N] [-quiet] [platform flags]
//	overlapsim cache ls -dir <cache-dir>
//	overlapsim cache prune -dir <cache-dir> [-stale] [-max-age D] [-max-size B] [-dry-run]
//
// Axis flags are repeatable: -latencies 5us,20us and -latencies 5us
// -latencies 20us declare the same axis. The platform axes (latencies,
// buscounts, rpns, eagers, colls) are replay-only: every platform point
// shares one instrumented run per (app, ranks, chunks) workload.
//
// The -gen-* axes sweep synthetic workload *shape*: their cross product
// joins the app axis as canonical "gen:..." tracegen specs, which behave
// like bundled apps everywhere (cache keys, signatures, shards, serve).
// overlapsim tracegen generates a single such workload standalone and
// echoes its canonical spec string for reuse with sweep -apps.
//
// Results flow through sweep.Sink implementations: the default batch sink
// writes the complete encoding after the last point, -stream-ordered flushes
// the longest finished prefix of grid order as the sweep runs (an interrupt
// keeps the flushed prefix as a well-formed partial file), and -shard writes
// the mergeable envelope. -cache-dir persists both traces and replay
// results, so an identical re-run performs zero instrumented runs and zero
// replays (see the sweep: work: line).
//
// -approx is the surrogate fast path: dense numeric axes (bandwidth,
// latency, eager threshold) are partitioned into interpolation families,
// only anchor points are replayed, and the rest are filled in by
// interpolation in the coordinate space where replay time is linear —
// validated by spot-check replays against the -approx-maxerr bound and
// demoted to full replay when the bound is exceeded. Every output row
// carries an approx column marking predicted points; predicted results are
// never written to the replay cache. The default (-approx=false) is
// byte-identical to earlier releases.
//
// campaign is the fault-tolerant flavour of that pipeline: a coordinator
// journals chunk state durably in -dir and leases chunks to pull workers
// (in-process goroutines, or `overlapsim worker` processes — spawned
// locally with -spawn or joined from other machines via -addr). Crashed
// or stalled workers are detected by missed heartbeats and their chunks
// retried with capped exponential backoff; a crashed coordinator is
// restarted with -resume and completes only the unfinished remainder.
// The assembled output is byte-identical to the same sweep run unsharded.
//
// serve turns that pipeline into a daemon: sweeps arrive as JSON over
// POST /sweeps and stream back in grid order, every request sharing one
// cache directory so repeat queries do zero instrumented runs and zero
// replays (docs/API.md has the wire contract, docs/OPERATIONS.md the
// runbook). cache ls and cache prune inspect and bound that shared
// directory by key version, age, and total size.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"overlapsim"
	"overlapsim/internal/apps"
	"overlapsim/internal/cliflag"
	"overlapsim/internal/experiment"
	"overlapsim/internal/overlap"
	"overlapsim/internal/stats"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = runList()
	case "run":
		err = runExperiments(os.Args[2:])
	case "study":
		err = runStudy(os.Args[2:])
	case "sweep":
		err = runSweep(os.Args[2:], os.Stdout)
	case "tracegen":
		err = runTracegen(os.Args[2:], os.Stdout)
	case "merge":
		err = runMerge(os.Args[2:], os.Stdout)
	case "campaign":
		err = runCampaign(os.Args[2:], os.Stdout)
	case "worker":
		err = runWorker(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "cache":
		err = runCache(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "overlapsim: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlapsim:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  overlapsim list                                 list applications and experiments
  overlapsim run <id>|all [-quick] [flags]        regenerate the paper's evaluation
  overlapsim study -app <name> [flags]            one-off overlap study with visualization
  overlapsim sweep -apps <a,b,...> [flags]        parallel parameter sweep (see -h)
  overlapsim tracegen [-pattern P] [flags]        generate a synthetic workload trace (or -replay it)
  overlapsim merge [flags] <shard.json> ...       recombine sweep shard outputs
  overlapsim campaign [flags] -- <sweep spec>     fault-tolerant sweep: leases, heartbeats, crash-resumable journal
  overlapsim worker -coordinator URL [flags]      join a campaign as a pull worker (optionally -chaos)
  overlapsim serve [flags]                        sweep-as-a-service HTTP daemon (docs/API.md)
  overlapsim cache ls|prune -dir <dir> [flags]    inspect and prune a shared cache directory`)
}

func runList() error {
	fmt.Println("applications:")
	tb := stats.NewTable("name", "ranks", "size", "iters", "description")
	for _, name := range apps.Names() {
		s, err := apps.Lookup(name)
		if err != nil {
			return err
		}
		tb.AddRow(s.Name, fmt.Sprint(s.Default.Ranks), fmt.Sprint(s.Default.Size),
			fmt.Sprint(s.Default.Iterations), s.Description)
	}
	if err := tb.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("\nexperiments:")
	te := stats.NewTable("id", "title")
	for _, d := range experiment.All {
		te.AddRow(d.ID, d.Title)
	}
	return te.Render(os.Stdout)
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use small workloads for a fast pass")
	chunks := fs.Int("chunks", 8, "partial-message granularity")
	workers := fs.Int("workers", 0, "sweep worker-pool size (0 = one per CPU); results are identical for any value")
	cacheDir := fs.String("cache-dir", "", "persistent trace cache directory; repeated runs skip the instrumented runs")
	mf := cliflag.RegisterMachine(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("run wants exactly one experiment id or \"all\"")
	}
	cfg, err := mf.Config()
	if err != nil {
		return err
	}
	suite := experiment.NewSuite()
	suite.Machine = cfg
	suite.Quick = *quick
	suite.Chunks = *chunks
	suite.Workers = *workers
	if *cacheDir != "" {
		suite.Cache = &sweep.TraceCache{Dir: *cacheDir, Warn: func(msg string) {
			fmt.Fprintln(os.Stderr, "run: warning:", msg)
		}}
	}

	ids := []string{fs.Arg(0)}
	if fs.Arg(0) == "all" {
		ids = ids[:0]
		for _, d := range experiment.All {
			ids = append(ids, d.ID)
		}
	}
	for _, id := range ids {
		d, err := experiment.Find(id)
		if err != nil {
			return err
		}
		fmt.Printf("==== %s: %s ====\n", d.ID, d.Title)
		if err := d.Run(suite, os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	runner := suite.Runner()
	if err := runner.CacheStoreErr(); err != nil {
		fmt.Fprintf(os.Stderr, "run: warning: cache not updated (next run will recompute): %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "run: work: %s\n", runner.Stats().Line(false))
	return nil
}

func runStudy(args []string) error {
	fs := flag.NewFlagSet("study", flag.ExitOnError)
	appName := fs.String("app", "sweep3d", "application to study")
	ranks := fs.Int("ranks", 0, "rank count (0 = app default)")
	size := fs.Int("size", 0, "problem size (0 = app default)")
	iters := fs.Int("iters", 0, "iterations (0 = app default)")
	chunks := fs.Int("chunks", 8, "partial-message granularity")
	pattern := fs.String("pattern", "linear", "computation pattern: real or linear")
	width := fs.Int("width", 100, "gantt width in columns")
	mf := cliflag.RegisterMachine(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := mf.Config()
	if err != nil {
		return err
	}
	var pat overlap.Pattern
	switch *pattern {
	case "real":
		pat = overlap.PatternReal
	case "linear":
		pat = overlap.PatternLinear
	default:
		return fmt.Errorf("unknown pattern %q (want real or linear)", *pattern)
	}

	app, err := overlapsim.NewApp(*appName, overlapsim.AppConfig{Ranks: *ranks, Size: *size, Iterations: *iters})
	if err != nil {
		return err
	}
	env := overlapsim.NewEnvironment()
	env.Machine = cfg
	env.Chunks = *chunks
	fmt.Printf("tracing %s (%d ranks) ...\n", *appName, app.Ranks())
	study, err := env.Trace(app)
	if err != nil {
		return err
	}
	cmp, err := study.Compare(cfg, overlapsim.TransformOptions{
		Mechanisms: overlapsim.BothMechanisms, Pattern: pat})
	if err != nil {
		return err
	}
	fmt.Printf("platform: %s\n", cfg)
	fmt.Printf("automatic overlap (%s pattern): %.2fx speedup (%+.1f%%)\n\n",
		pat, cmp.Speedup(), stats.PercentGain(cmp.Speedup()))
	if err := cmp.RenderGantt(os.Stdout, *width); err != nil {
		return err
	}
	fmt.Println()
	return cmp.WriteSummaries(os.Stdout)
}

// runSweep expands a declarative grid from the command line and fans the
// simulations out over the sweep engine's worker pool, delivering every
// result through a sweep.Sink. Output is in stable point order:
// byte-identical for any -workers value and for any sink (batch, ordered
// streaming, shard+merge). With -shard k/N only that shard's points run and
// the output is a mergeable shard file; with -cache-dir instrumented runs
// AND replay results are shared across processes.
func runSweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	resolve := registerSweepSpec(fs)
	workers := fs.Int("workers", 0, "worker-pool size (0 = one per CPU); results are identical for any value")
	format := fs.String("format", "table", "output format: table, csv or json")
	out := fs.String("o", "", "write results to this file instead of stdout")
	fs.StringVar(out, "out", "", "alias for -o")
	shardFlag := fs.String("shard", "", "run only shard k/N of the grid (e.g. 1/2) and write a shard file for overlapsim merge")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory shared by repeated sweeps and sibling shards: traces and replay results")
	progress := fs.Bool("progress", false, "report completed/total points to stderr as the sweep runs")
	stream := fs.Bool("stream", false, "print completed points to stderr as they finish (completion order, unordered); the final output stays in grid order")
	streamOrdered := fs.Bool("stream-ordered", false, "flush results to -o/stdout incrementally in grid order (longest finished prefix); an interrupt keeps the flushed prefix as a well-formed partial file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the sweep ends")
	ap := cliflag.RegisterApprox(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("sweep takes no positional arguments (got %q)", fs.Args())
	}
	if err := ap.Validate(); err != nil {
		return err
	}
	f, err := sweep.ParseFormat(*format)
	if err != nil {
		return err
	}
	spec, err := resolve()
	if err != nil {
		return err
	}

	var shard sweep.Shard
	if *shardFlag != "" {
		if shard, err = sweep.ParseShard(*shardFlag); err != nil {
			return err
		}
		formatSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "format" {
				formatSet = true
			}
		})
		if formatSet {
			return fmt.Errorf("-shard writes a shard file; choose the final format on overlapsim merge instead")
		}
		if *streamOrdered {
			return fmt.Errorf("-stream-ordered streams formatted results; a shard writes a single merge envelope (use -stream for per-point progress)")
		}
	}

	// Profiles are written on every exit path — including an interrupt,
	// which cancels the sweep through the signal context below and returns
	// through these defers rather than killing the process.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: closing %s: %v\n", *cpuProfile, err)
			} else {
				fmt.Fprintf(os.Stderr, "sweep: cpu profile written to %s\n", *cpuProfile)
			}
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: %v\n", err)
				return
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: writing %s: %v\n", *memProfile, err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: closing %s: %v\n", *memProfile, err)
			} else {
				fmt.Fprintf(os.Stderr, "sweep: heap profile written to %s\n", *memProfile)
			}
		}()
	}

	warn := func(msg string) { fmt.Fprintln(os.Stderr, "sweep: warning:", msg) }
	runner := spec.runner(*workers, *cacheDir, ap, warn)

	total := spec.grid.Size()
	indices := shard.Indices(total)
	if *progress {
		runner.Engine.Progress = func(done, n int) {
			fmt.Fprintf(os.Stderr, "sweep: completed %d/%d points\n", done, n)
		}
	}
	if shard.IsZero() {
		fmt.Fprintf(os.Stderr, "sweep: %d points on %d workers\n", total, runner.Engine.WorkerCount())
	} else {
		fmt.Fprintf(os.Stderr, "sweep: shard %s: %d of %d points on %d workers\n",
			shard, len(indices), total, runner.Engine.WorkerCount())
	}

	// Every output mode is a sink over the (lazily created) output target:
	// the batch and shard sinks write only on Close — a failed sweep leaves
	// no output file — while the ordered sink flushes the finished prefix
	// as it grows, which is exactly what -stream-ordered promises to keep
	// on an interrupt.
	w, closeOut := outputTarget(stdout, *out)
	var sink sweep.Sink
	var ordered *sweep.OrderedSink
	switch {
	case !shard.IsZero():
		sig := spec.signature()
		ss := sweep.NewShardSink(w, sig, total, shard, indices)
		ss.SetApprox(ap.Enabled)
		sink = ss
	case *streamOrdered:
		ordered = sweep.NewOrderedSink(w, f, spec.grid.Expand(), indices)
		ordered.SetApprox(ap.Enabled)
		sink = ordered
	default:
		bs := sweep.NewBatchSink(w, f)
		bs.SetApprox(ap.Enabled)
		sink = bs
	}

	// -stream wraps the sink: each completed point is logged to stderr — in
	// completion order, explicitly unordered — before it is forwarded, so
	// streaming never perturbs the final output bytes.
	run := sink
	var logger *streamLogger
	if *stream {
		fmt.Fprintf(os.Stderr, "sweep: streaming completed points in completion order (unordered; final output stays in grid order)\n")
		logger = &streamLogger{inner: sink, total: len(indices)}
		run = logger
	}

	// An interrupt (Ctrl-C) or SIGTERM cancels the sweep: claimed points
	// finish (and still reach the sink and the -stream output), no new
	// ones start. The batch and shard sinks are then abandoned unclosed —
	// no partial output file — while the ordered sink is closed to keep
	// the flushed grid-order prefix.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runner.RunIndicesSinkContext(ctx, spec.grid, indices, run); err != nil {
		if logger != nil && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "sweep: interrupted; %d finished points were streamed above\n", logger.n)
		}
		if ordered != nil {
			// Terminate the flushed prefix no matter why the sweep stopped
			// (interrupt or a failing point): the bytes are already on disk,
			// and a terminated file is a well-formed partial result instead
			// of a truncated encoding.
			if cerr := sink.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: finalizing the partial output: %v\n", cerr)
			} else if cerr := closeOut(); cerr != nil {
				fmt.Fprintf(os.Stderr, "sweep: warning: closing the partial output: %v\n", cerr)
			} else {
				fmt.Fprintf(os.Stderr, "sweep: kept the ordered prefix of %d finished points\n", ordered.Flushed())
			}
		}
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted: %w", err)
		}
		return err
	}
	if err := runner.CacheStoreErr(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: warning: cache not updated (next run will recompute): %v\n", err)
	}
	fmt.Fprintf(os.Stderr, "sweep: work: %s\n", runner.Stats().Line(ap.Enabled))

	if err := sink.Close(); err != nil {
		return err
	}
	// A failed close can mean a failed flush: report it, never exit 0 with
	// a truncated results file.
	return closeOut()
}

// streamLogger is the -stream sink decorator: it narrates each completed
// point to stderr, then forwards it unchanged. Accept calls are serialized
// by the runner, so the counter needs no locking.
type streamLogger struct {
	inner sweep.Sink
	total int
	n     int
}

func (s *streamLogger) Accept(index int, res sweep.Result) error {
	s.n++
	fmt.Fprintf(os.Stderr, "sweep: done [%d/%d] point %d: %s: %.3fx (T %s -> %s)\n",
		s.n, s.total, index, res.Point,
		res.Speedup, units.Duration(res.TOriginal), units.Duration(res.TOverlap))
	return s.inner.Accept(index, res)
}

func (s *streamLogger) Close() error { return s.inner.Close() }

// runMerge recombines shard files written by sweep -shard into the final
// table/CSV/JSON, byte-identical to the same sweep run unsharded: the
// merged results go through the same Write an unsharded sweep's batch
// sink calls.
func runMerge(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	format := fs.String("format", "table", "output format: table, csv or json")
	out := fs.String("o", "", "write results to this file instead of stdout")
	fs.StringVar(out, "out", "", "alias for -o")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge wants at least one shard file")
	}
	f, err := sweep.ParseFormat(*format)
	if err != nil {
		return err
	}
	shards := make([]*sweep.ShardFile, 0, fs.NArg())
	approxMode := false
	for _, path := range fs.Args() {
		file, err := os.Open(path)
		if err != nil {
			return err
		}
		sf, err := sweep.ReadShard(file)
		file.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		approxMode = approxMode || sf.ApproxMode
		shards = append(shards, sf)
	}
	results, err := sweep.Merge(shards)
	if err != nil {
		return err
	}
	w, closeOut := outputTarget(stdout, *out)
	if err := sweep.Write(w, f, results, approxMode); err != nil {
		return err
	}
	return closeOut()
}

// outputTarget returns the writer results flow to — stdout, or a lazily
// created file — plus a close func. The file is created on first write,
// so a sink that never writes (a failed batch run) leaves no file behind,
// and a failed close is reported rather than exiting 0 with a truncated
// results file.
func outputTarget(stdout io.Writer, path string) (io.Writer, func() error) {
	if path == "" {
		return stdout, func() error { return nil }
	}
	lf := &lazyFile{path: path}
	return lf, lf.Close
}

// lazyFile creates its file on first Write.
type lazyFile struct {
	path string
	f    *os.File
}

func (l *lazyFile) Write(p []byte) (int, error) {
	if l.f == nil {
		f, err := os.Create(l.path)
		if err != nil {
			return 0, err
		}
		l.f = f
	}
	return l.f.Write(p)
}

func (l *lazyFile) Close() error {
	if l.f == nil {
		return nil
	}
	return l.f.Close()
}
