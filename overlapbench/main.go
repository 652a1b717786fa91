// Command overlapbench is overlapsim's benchmark: four workloads that
// drive the sweep library, the serve daemon and the campaign coordinator
// in-process, check their outputs against stored references, and report
// end-to-end metrics (untraced) or per-layer metrics (--trace 1). See
// README.md for the workloads, the metrics and how to run them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	// setupReps overrides the workload's set-up count (tests use 1).
	setupReps int
	outDir    string
	tmpDir    string
	// ref overrides the stored reference (tests at tiny scale).
	ref *variantRef
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit keeps every run inside the 180-second budget a run is given.
const runLimit = 170 * time.Second

// Set-ups per run, reported as their median. A sweep's set-up is a
// fraction of a second, so nine of them cost little and steady the
// median; the warm workloads' set-ups fill a cache and take seconds each.
const (
	sweepSetups = 9
	warmSetups  = 3
)

func main() {
	o := options{scale: scaleFull}
	var writeRefsDir string
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.outDir, "out-dir", filepath.Join(".bench_build", "out"), "directory for span files and per-layer tables")
	flag.StringVar(&o.tmpDir, "tmp-dir", filepath.Join(".bench_build", "tmp"), "directory for caches and campaign journals (emptied at exit)")
	flag.StringVar(&writeRefsDir, "write-refs", "", "regenerate the reference files into this directory and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	if writeRefsDir != "" {
		if err := writeRefs(writeRefsDir); err != nil {
			fmt.Fprintln(os.Stderr, "overlapbench:", err)
			os.Exit(1)
		}
		return
	}
	var err error
	if o.workload == "all" {
		err = runAll(o, traceFlag, os.Stdout)
	} else {
		var res result
		res, err = run(o, os.Stdout)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "overlapbench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in its own process, so each reports its own
// peak memory, and ends with one line that combines their results.
func runAll(o options, traceFlag int, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		var out strings.Builder
		cmd := exec.Command(self, "--workload", name,
			"--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(traceFlag),
			"--out-dir", o.outDir, "--tmp-dir", o.tmpDir)
		cmd.Stdout = io.MultiWriter(w, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: result line: %w", name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[name+"."+k] = m
		}
	}
	return json.NewEncoder(w).Encode(total)
}

// run executes one workload and returns its result line; the readable
// report goes to w.
func run(o options, w io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	wl, err := newWorkload(o.workload)
	if err != nil {
		return res, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return res, err
	}
	tmp, err := os.MkdirTemp(o.tmpDir, o.workload+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: o.seed, variant: variantOf(o.seed), scale: o.scale, tmp: tmp, ref: o.ref}
	if e.ref == nil {
		// Without a reference the run still measures, but cannot pass.
		if e.ref, err = loadRef(o.workload, e.variant); err != nil {
			e.setupErrs = append(e.setupErrs, err.Error())
		}
	}
	defer wl.close()

	reps := o.setupReps
	if reps <= 0 {
		reps = warmSetups
		if _, ok := wl.(*sweepWorkload); ok {
			reps = sweepSetups
		}
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		// Like a unit, each set-up starts from a collected heap.
		runtime.GC()
		t := time.Now()
		if err := wl.setup(e); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		err = traced(ctx, o, e, wl, window, &res, w)
	} else {
		err = untraced(ctx, o, e, wl, window, setups, &res, w)
	}
	res.Attempted += len(e.setupErrs)
	res.Failed += len(e.setupErrs)
	for _, s := range e.setupErrs {
		fmt.Fprintf(w, "FAIL set-up: %s\n", s)
	}
	res.Correct = res.Failed == 0
	return res, err
}

// measure runs untraced units until the window has passed (at least one).
// Each unit starts from a collected heap, as a fresh invocation would, so
// one unit's garbage does not bill the next and peak memory is a unit's.
func measure(ctx context.Context, wl workload, window time.Duration) ([]unitOut, time.Duration, error) {
	var units []unitOut
	start := time.Now()
	for {
		runtime.GC()
		u, err := wl.unit(ctx, nil, -1)
		if errors.Is(err, errExhausted) && len(units) > 0 {
			break
		}
		if err != nil {
			return units, 0, err
		}
		units = append(units, u)
		if time.Since(start) >= window {
			break
		}
	}
	return units, time.Since(start), nil
}

// tally adds the units' requests and failures to the result.
func tally(res *result, w io.Writer, units []unitOut) {
	for _, u := range units {
		res.Attempted += len(u.reqs)
		res.Failed += u.failed()
		for _, msg := range u.errs {
			fmt.Fprintf(w, "FAIL %s\n", msg)
		}
	}
}

func untraced(ctx context.Context, o options, e *env, wl workload, window time.Duration, setups []float64, res *result, w io.Writer) error {
	units, elapsed, err := measure(ctx, wl, window)
	if err != nil {
		return err
	}
	tally(res, w, units)
	var walls, lat, ttfb []float64
	busy := 0.0
	maxRelErr := 0.0
	for _, u := range units {
		walls = append(walls, u.wall.Seconds())
		busy += u.wall.Seconds()
		for _, r := range u.reqs {
			lat = append(lat, ms(r.lat))
			ttfb = append(ttfb, ms(r.ttfb))
		}
		if u.maxRelErr > maxRelErr {
			maxRelErr = u.maxRelErr
		}
	}
	tailV, tailP, beyond := tail(lat)
	vals := map[string]float64{
		"setup_s":     median(setups),
		"sweep_s":     median(walls),
		"req_p50_ms":  median(lat),
		"req_tail_ms": tailV,
		"ttfb_p50_ms": median(ttfb),
		"req_per_s":   float64(len(lat)) / busy,
		"peak_rss_mb": peakRSSMB(),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	fmt.Fprintf(w, "workload %s, seed %d (input variant %d), %s scale: %d units, %d requests in %.2fs, %d set-ups\n",
		o.workload, o.seed, e.variant, o.scale, len(units), len(lat), elapsed.Seconds(), len(setups))
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-20s %14.6f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(w, "  req_tail_ms is p%g of %d requests, %d beyond it\n", tailP, len(lat), beyond)
	fmt.Fprintf(w, "  unit walls (s): %s\n", fmtList(walls))
	fmt.Fprintf(w, "  set-ups (s): %s\n", fmtList(setups))
	errRate := 0.0
	if res.Attempted > 0 {
		errRate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "  %-20s %14.6f (%d failed of %d attempted)\n", "error_rate", errRate, res.Failed, res.Attempted)
	if o.workload == "dense-approx" {
		fmt.Fprintf(w, "  %-20s %14.6f (bound %.2f, against the exact run)\n", "approx_max_rel_err", maxRelErr, approxBound)
	}
	return nil
}

func traced(ctx context.Context, o options, e *env, wl workload, window time.Duration, res *result, w io.Writer) error {
	// Untraced units first, for the tracing overhead's baseline.
	base, _, err := measure(ctx, wl, window/2)
	if err != nil {
		return err
	}
	tally(res, w, base)
	var baseWalls []float64
	for _, u := range base {
		baseWalls = append(baseWalls, u.wall.Seconds())
	}

	rec := newRecorder()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ru0 := rusage()
	root := rec.start("unit", -1, "unit")
	u, err := wl.unit(ctx, rec, root)
	rec.stop(root)
	ru1 := rusage()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	tally(res, w, []unitOut{u})

	lroot := rec.start("layers", -1, "")
	lo, err := layerPass(rec, lroot, u.inputs, e.tmp)
	if err != nil {
		return fmt.Errorf("layer pass: %w", err)
	}
	sinkBytes := u.sinkBytes
	sw, isServe := wl.(*serveWorkload)
	if isServe {
		if sinkBytes, err = sinkPass(ctx, rec, lroot, u.inputs, sw.cache); err != nil {
			return fmt.Errorf("sink pass: %w", err)
		}
	}
	rec.stop(lroot)
	if len(u.errs) == 0 {
		errs, err := agree(u, lo, e.ref)
		if err != nil {
			return err
		}
		res.Attempted += len(u.inputs)
		res.Failed += len(errs)
		for _, msg := range errs {
			fmt.Fprintf(w, "FAIL %s\n", msg)
		}
	}

	// Surface probes: the serve and campaign layers measured on a slice of
	// this workload's own input, where the workload does not exercise them.
	proot := rec.start("probes", -1, "")
	var po probeOut
	_, isCampaign := wl.(*campaignWorkload)
	pin := probeInput(u.inputs[0])
	probeCache := ""
	if isServe {
		probeCache = sw.cache
	} else {
		if probeCache, err = os.MkdirTemp(e.tmp, "probe-cache-"); err != nil {
			return err
		}
		defer os.RemoveAll(probeCache)
		if po, err = probeServe(ctx, rec, proot, pin, probeCache); err != nil {
			return err
		}
	}
	if !isCampaign {
		if po.camp, err = probeCampaign(ctx, rec, proot, pin, probeCache, filepath.Join(e.tmp, "probe-campaign")); err != nil {
			return err
		}
	}
	rec.stop(proot)

	spans := rec.snapshot()
	unitSpans := subtree(spans, root)
	unitRows := rowsByName(layerTable(unitSpans))
	layerRows := rowsByName(layerTable(subtree(spans, lroot)))
	probeRows := rowsByName(layerTable(subtree(spans, proot)))
	busy := func(rows map[string]layerRow, names ...string) float64 {
		var t time.Duration
		for _, n := range names {
			t += rows[n].Total
		}
		return t.Seconds()
	}
	both := func(name string) float64 { return busy(unitRows, name) + busy(layerRows, name) }
	surface := func(name string) float64 { return busy(unitRows, name) + busy(probeRows, name) }

	wall := u.wall.Seconds()
	work := u.work
	var ttfbs, warm, cold []float64
	for _, r := range u.reqs {
		ttfbs = append(ttfbs, r.ttfb.Seconds())
		if r.cold {
			cold = append(cold, ms(r.lat))
		} else {
			warm = append(warm, ms(r.lat))
		}
	}
	camp := u.camp
	if !isCampaign {
		camp = po.camp.camp
	}
	warmP50, coldP50 := po.warmReq, po.coldReq
	if isServe {
		warmP50, coldP50 = median(warm), median(cold)
	}
	lookups := work.ReplayMemoHits + work.Replays + work.ReplayStoreHits
	exactReplays := float64(work.Replays)
	if e.ref != nil && e.ref.ExactReplays > 0 {
		exactReplays = float64(e.ref.ExactReplays)
	}
	replayBusy := busy(layerRows, "replay.batch", "replay.simulate")
	self := selfTimes(unitSpans)
	baseWall := median(baseWalls)
	vals := map[string]float64{
		"tracer.runs":              float64(work.Traces),
		"tracer.busy_s":            busy(layerRows, "tracer.trace"),
		"overlap.transforms":       float64(lo.transforms),
		"overlap.busy_s":           busy(layerRows, "overlap.transform"),
		"validate.busy_s":          busy(layerRows, "trace.validate"),
		"replay.runs":              float64(work.Replays),
		"replay.batched":           float64(work.BatchedReplays),
		"replay.busy_s":            replayBusy,
		"replay.des_steps":         float64(lo.steps),
		"replay.ns_per_step":       ratio(replayBusy*1e9, float64(lo.steps)),
		"replay.parallel_windows":  float64(work.ParallelWindows),
		"sweep.memo_hits":          float64(work.ReplayMemoHits),
		"sweep.memo_hit_ratio":     ratio(float64(work.ReplayMemoHits), float64(lookups)),
		"sweep.first_result_s":     median(ttfbs),
		"sweep.cpu_util":           ratio(cpuSeconds(ru1)-cpuSeconds(ru0), wall*float64(runtime.GOMAXPROCS(0))),
		"surrogate.predicted":      float64(work.PredictedPoints),
		"surrogate.spot_checks":    float64(work.SpotCheckReplays),
		"surrogate.demoted":        float64(work.DemotedFamilies),
		"surrogate.replay_frac":    ratio(float64(work.Replays), exactReplays),
		"surrogate.max_rel_err":    u.maxRelErr,
		"tracecache.hits":          float64(work.TraceCacheHits),
		"tracecache.load_busy_s":   busy(layerRows, "tracecache.load"),
		"replaystore.hits":         float64(work.ReplayStoreHits),
		"replaystore.writes":       float64(u.storeWrites),
		"replaystore.load_busy_s":  busy(layerRows, "replaystore.load"),
		"replaystore.store_busy_s": busy(layerRows, "replaystore.store"),
		"merge.busy_s":             busy(layerRows, "sweep.merge"),
		"sink.accept_busy_s":       both("sink.accept"),
		"sink.close_busy_s":        both("sink.close"),
		"sink.bytes":               float64(sinkBytes),
		"serve.warm_req_p50_ms":    warmP50,
		"serve.cold_req_p50_ms":    coldP50,
		"serve.rejected":           float64(u.rejected),
		"campaign.chunks":          float64(camp.Chunks),
		"campaign.leases":          float64(camp.Leases),
		"campaign.lease_busy_s":    surface("campaign.lease"),
		"campaign.complete_busy_s": surface("campaign.complete"),
		"campaign.assemble_s":      surface("campaign.assemble"),
		"host.cpu_s":               cpuSeconds(ru1) - cpuSeconds(ru0),
		"host.alloc_mb":            float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		"host.gc_cycles":           float64(ms1.NumGC - ms0.NumGC),
		"trace.unaccounted_frac":   ratio(self[0].Seconds(), wall),
		"trace.overhead_frac":      ratio(wall-baseWall, baseWall),
		"trace.spans":              float64(len(unitSpans)),
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}

	// The readable report and the span file.
	var rep strings.Builder
	fmt.Fprintf(&rep, "workload %s, seed %d (input variant %d), %s scale: traced unit %.3fs, untraced median %.3fs over %d units\n",
		o.workload, o.seed, e.variant, o.scale, wall, baseWall, len(baseWalls))
	fmt.Fprintf(&rep, "tracing overhead: %+.3fs (%+.2f%% of the untraced unit)\n", wall-baseWall, 100*vals["trace.overhead_frac"])
	fmt.Fprintf(&rep, "unaccounted: %.2f%% of the traced unit's wall time lies outside every recorded span\n", 100*vals["trace.unaccounted_frac"])
	writeLayerTable(&rep, "traced unit", layerTable(unitSpans), u.wall)
	writeLayerTable(&rep, "layer pass (serial, the unit's own inputs)", layerTable(subtree(spans, lroot)), spans[lroot].dur())
	writeLayerTable(&rep, "surface probes", layerTable(subtree(spans, proot)), spans[proot].dur())
	fmt.Fprintf(&rep, "ratios and their bases:\n")
	fmt.Fprintf(&rep, "  sweep.memo_hit_ratio   = %d memo hits / %d replay lookups\n", work.ReplayMemoHits, lookups)
	fmt.Fprintf(&rep, "  surrogate.replay_frac  = %d replays / %.0f replays of the exact run\n", work.Replays, exactReplays)
	fmt.Fprintf(&rep, "  replay.ns_per_step     = %.6fs layer-pass replay time / %d DES steps over %d replays\n", replayBusy, lo.steps, lo.replays)
	fmt.Fprintf(&rep, "  sweep.cpu_util         = %.3fs CPU / (%.3fs wall x %d procs)\n", vals["host.cpu_s"], wall, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&rep, "  trace.unaccounted_frac = %.6fs root self time / %.6fs wall\n", self[0].Seconds(), wall)
	for _, m := range perLayer {
		fmt.Fprintf(&rep, "  %-26s %16.6f %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprint(w, rep.String())
	return writeTraceFiles(o, spans, rep.String())
}

// writeTraceFiles writes the span file (one JSON span per line) and the
// per-layer report next to it.
func writeTraceFiles(o options, spans []span, report string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	if err := writeJSONL(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.WriteFile(base+".layers.txt", []byte(report), 0o644)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
