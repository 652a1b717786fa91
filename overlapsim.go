// Package overlapsim is a simulation environment for studying overlap of
// communication and computation in message-passing applications — a Go
// reproduction of Subotic, Labarta and Valero (ISPASS 2010).
//
// The environment measures how much an MPI application can profit from
// *automatic overlap*: partitioning every message into chunks, sending each
// chunk as soon as it is produced, and waiting for each chunk only when it
// is first needed. It consists of three stages, mirroring the paper:
//
//  1. a tracing tool that runs the application once on an instrumented
//     in-process MPI runtime and extracts the original (non-overlapped)
//     trace together with measured production/consumption patterns;
//  2. a Dimemas-like discrete-event replayer that reconstructs the
//     execution on a configurable platform (CPU speed, latency, bandwidth,
//     buses, links, eager/rendezvous protocol); and
//  3. a Paraver-like visualization of the simulated time behaviours.
//
// Quick start:
//
//	env := overlapsim.NewEnvironment()
//	app, _ := overlapsim.NewApp("sweep3d", overlapsim.AppConfig{})
//	study, _ := env.Trace(app)
//	cmp, _ := study.Compare(env.Machine, overlapsim.IdealOverlap())
//	fmt.Printf("automatic overlap speedup: %.2fx\n", cmp.Speedup())
//	cmp.RenderGantt(os.Stdout, 100)
//
// The internal packages carry the substrates (trace format, network model,
// MPI runtime, memory tracking, transformation, experiment harness); this
// package re-exports the surface a downstream user needs.
package overlapsim

import (
	"io"

	"overlapsim/internal/apps"
	"overlapsim/internal/core"
	"overlapsim/internal/experiment"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// Re-exported core types. See the respective internal packages for full
// documentation of every method.
type (
	// Environment wires tracing, replay and visualization (paper Fig. 1).
	Environment = core.Environment
	// Study is a traced application with cached overlapped variants.
	Study = core.Study
	// Comparison pairs a non-overlapped and an overlapped replay.
	Comparison = core.Comparison
	// Machine describes the simulated platform.
	Machine = machine.Config
	// AppConfig sizes a bundled application proxy.
	AppConfig = apps.Config
	// App is anything the tracing tool can run.
	App = tracer.App
	// TransformOptions selects mechanisms, pattern and granularity of the
	// overlap transformation.
	TransformOptions = overlap.Options
	// TraceSet is a complete multi-rank trace.
	TraceSet = trace.Set
	// Suite runs the paper's experiments.
	Suite = experiment.Suite
)

// Re-exported parameter-sweep types. A SweepGrid declares the cross product
// of applications, rank counts, bandwidths, chunk granularities, overlap
// mechanisms and patterns, plus the platform axes (latencies, bus counts,
// ranks-per-node, eager thresholds, collective models — replay-only: every
// platform point shares one instrumented run per workload); a SweepRunner
// expands it into independent simulation jobs and fans them out over a
// bounded worker pool, returning results in stable point order
// (bit-identical for any worker count). RunSink and RunSinkContext instead
// deliver each result to a SweepSink as it completes, for partial answers
// on huge grids; NewTeeSweepSink feeds several sinks from one run.
type (
	// SweepGrid declares a parameter sweep as the cross product of axes.
	SweepGrid = sweep.Grid
	// CollectiveModel selects the collective cost-formula family of a
	// Machine, such as CollectivesLog.
	CollectiveModel = machine.CollectiveModel
	// SweepResult is the outcome of one grid point.
	SweepResult = sweep.Result
	// SweepEngine bounds the worker pool simulations fan out on.
	SweepEngine = sweep.Engine
	// SweepRunner executes grids with shared trace caches.
	SweepRunner = sweep.Runner
	// TraceCache persists profiled trace sets across processes so repeated
	// sweeps and sibling shards skip the instrumented runs.
	TraceCache = sweep.TraceCache
	// ReplayStore persists replay results across processes (normally next
	// to the trace cache), so a warm re-run of an identical sweep skips
	// the replays too — zero instrumented runs AND zero replays, visible
	// through SweepRunner.Stats.
	ReplayStore = replaystore.Store
	// SweepSink consumes sweep results as they complete (out of order);
	// the batch writer, the ordered-prefix streamer and the shard envelope
	// writer are its implementations, and SweepRunner.RunSink feeds any of
	// them without retaining results in memory.
	SweepSink = sweep.Sink
	// OrderedSweepSink streams results in grid order, flushing the longest
	// finished prefix as it becomes contiguous; its completed output is
	// byte-identical to WriteSweepResults.
	OrderedSweepSink = sweep.OrderedSink
)

// Re-exported unit types.
type (
	// Duration is a span of simulated time in nanoseconds.
	Duration = units.Duration
	// Bandwidth is a transfer rate in bytes per simulated second.
	Bandwidth = units.Bandwidth
)

// BothMechanisms selects every overlapping mechanism in TransformOptions.
const BothMechanisms = overlap.BothMechanisms

// CollectivesLog is the logarithmic collective cost-model family for
// Machine.Collectives and the sweep Collectives axis.
const CollectivesLog = machine.CollLog

// NewEnvironment returns an environment on the default platform.
func NewEnvironment() *Environment { return core.NewEnvironment() }

// DefaultMachine returns the baseline platform used by the experiments.
func DefaultMachine() Machine { return machine.Default() }

// IdealMachine returns a contention-free, zero-latency platform.
func IdealMachine() Machine { return machine.Ideal() }

// MachinePreset returns a named platform preset (fast-ethernet, gige,
// myrinet-2000, infiniband-ddr, infiniband-hdr, smp4, default, ideal).
func MachinePreset(name string) (Machine, error) { return machine.Preset(name) }

// MachinePresets lists the available platform preset names.
func MachinePresets() []string { return machine.PresetNames() }

// NewApp instantiates a bundled application proxy by name; zero config
// fields inherit the app's defaults. Names() lists what is available.
func NewApp(name string, cfg AppConfig) (App, error) { return apps.New(name, cfg) }

// Apps returns the registered application names.
func Apps() []string { return apps.Names() }

// PaperApps returns the six applications of the paper's evaluation.
func PaperApps() []string { return apps.PaperApps() }

// IdealOverlap returns the transformation options for full automatic
// overlap with the ideal sequential (linear) pattern.
func IdealOverlap() TransformOptions {
	return TransformOptions{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}
}

// MeasuredOverlap returns the transformation options for full automatic
// overlap with the measured (real) patterns.
func MeasuredOverlap() TransformOptions {
	return TransformOptions{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
}

// NewSuite returns the experiment suite on the default platform.
func NewSuite() *Suite { return experiment.NewSuite() }

// NewSweepRunner returns a sweep runner on the given platform. Configure
// its Engine field to bound the worker pool (zero means one per CPU).
func NewSweepRunner(m Machine) *SweepRunner { return sweep.NewRunner(m) }

// WriteSweepResults encodes sweep results in the named format: "table",
// "csv" or "json".
func WriteSweepResults(w io.Writer, format string, results []SweepResult) error {
	f, err := sweep.ParseFormat(format)
	if err != nil {
		return err
	}
	return sweep.Write(w, f, results, false)
}

// NewBatchSweepSink returns a sink that buffers results and writes the
// complete encoding ("table", "csv" or "json") on Close — the batch
// writer as a SweepSink.
func NewBatchSweepSink(w io.Writer, format string) (SweepSink, error) {
	f, err := sweep.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return sweep.NewBatchSink(w, f), nil
}

// NewOrderedSweepSink returns an ordered-prefix streaming sink for the
// grid: results flush to w in grid order as the finished prefix grows, and
// the completed output is byte-identical to WriteSweepResults. Close after
// an interrupted run to keep a well-formed partial encoding of the prefix.
func NewOrderedSweepSink(w io.Writer, format string, g SweepGrid) (*OrderedSweepSink, error) {
	f, err := sweep.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return sweep.NewOrderedSink(w, f, g.Expand(), nil), nil
}

// NewTeeSweepSink returns a sink that forwards every result to each leg,
// so one sweep can feed several outputs (e.g. a network stream and a
// file) at once. It fails sticky on the first leg error and Close closes
// every leg.
func NewTeeSweepSink(legs ...SweepSink) SweepSink { return sweep.NewTeeSink(legs...) }

// NewReplayStore returns a persistent replay-result store rooted at dir,
// for a SweepRunner's Store field. Point it at the same directory as the
// TraceCache: the key schemes are version-prefixed and coexist.
func NewReplayStore(dir string) *ReplayStore { return &replaystore.Store{Dir: dir} }

// RunExperiment runs one of the paper's experiments (f1, e1, e2, e2f, e3,
// a1, a2, a3, b1, s1) and writes its tables to w.
func RunExperiment(id string, s *Suite, w io.Writer) error {
	d, err := experiment.Find(id)
	if err != nil {
		return err
	}
	return d.Run(s, w)
}

// Experiments lists the available experiment ids with their titles.
func Experiments() map[string]string {
	out := map[string]string{}
	for _, d := range experiment.All {
		out[d.ID] = d.Title
	}
	return out
}

// WriteTrace encodes a trace set in the text format.
func WriteTrace(w io.Writer, ts *TraceSet) error { return trace.Write(w, ts) }

// ReadTrace decodes a trace set from the text format.
func ReadTrace(r io.Reader) (*TraceSet, error) { return trace.Read(r) }
