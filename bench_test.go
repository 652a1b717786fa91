// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per entry of the experiment.All registry. Each
// iteration runs the complete experiment on a fresh Suite — trace load
// from a cache primed before the timer starts, transform, replay sweep,
// table rendering — so `go test -bench=.` both measures the harness and
// proves every artifact regenerates.
// Component-level microbenchmarks live in the respective internal
// packages.
package overlapsim_test

import (
	"io"
	"testing"

	"overlapsim"
	"overlapsim/internal/experiment"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
)

// runExperiment times one experiment end to end. The first run traces
// into a trace cache in b.TempDir() (the paper's methodology also traces
// once and replays many times); every timed iteration then runs on a
// fresh Suite over that cache, because a reused Suite would answer every
// replay after the first iteration from its Runner's memo.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	d, err := experiment.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	cache := &sweep.TraceCache{Dir: b.TempDir()}
	suite := func() *experiment.Suite {
		s := experiment.NewSuite()
		s.Cache = cache
		return s
	}
	if err := d.Run(suite(), io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Run(suite(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Pipeline regenerates F1: the full trace -> Dimemas ->
// Paraver pipeline with the original/overlapped comparison.
func BenchmarkFig1Pipeline(b *testing.B) { runExperiment(b, "f1") }

// BenchmarkE1RealVsIdealPatterns regenerates finding 1: measured vs ideal
// computation patterns across the six applications.
func BenchmarkE1RealVsIdealPatterns(b *testing.B) { runExperiment(b, "e1") }

// BenchmarkE2SpeedupTable regenerates finding 2: the per-application
// speedup table at intermediate bandwidth.
func BenchmarkE2SpeedupTable(b *testing.B) { runExperiment(b, "e2") }

// BenchmarkE2fBandwidthSweep regenerates the implied per-app figure: the
// speedup-vs-bandwidth curves over the full grid.
func BenchmarkE2fBandwidthSweep(b *testing.B) { runExperiment(b, "e2f") }

// BenchmarkE3IsoPerformance regenerates finding 3: the iso-performance
// bandwidth-reduction table.
func BenchmarkE3IsoPerformance(b *testing.B) { runExperiment(b, "e3") }

// BenchmarkA1Mechanisms regenerates the mechanism-isolation ablation.
func BenchmarkA1Mechanisms(b *testing.B) { runExperiment(b, "a1") }

// BenchmarkA2ChunkGranularity regenerates the chunk-count ablation.
func BenchmarkA2ChunkGranularity(b *testing.B) { runExperiment(b, "a2") }

// BenchmarkA3NetworkModel regenerates the network-parameter ablation.
func BenchmarkA3NetworkModel(b *testing.B) { runExperiment(b, "a3") }

// BenchmarkB1AnalyticBaseline regenerates the analytic-vs-simulated
// comparison against the Sancho et al. model.
func BenchmarkB1AnalyticBaseline(b *testing.B) { runExperiment(b, "b1") }

// BenchmarkS1Scaling regenerates the process-grid scaling extension.
func BenchmarkS1Scaling(b *testing.B) { runExperiment(b, "s1") }

// BenchmarkTraceSweep3D measures the tracing-tool stage alone on the
// largest workload: one fully instrumented parallel run.
func BenchmarkTraceSweep3D(b *testing.B) {
	env := overlapsim.NewEnvironment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app, err := overlapsim.NewApp("sweep3d", overlapsim.AppConfig{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := env.Trace(app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayBT measures the Dimemas-like stage alone: replaying the
// BT trace on the default platform.
func BenchmarkReplayBT(b *testing.B) {
	env := overlapsim.NewEnvironment()
	app, err := overlapsim.NewApp("bt", overlapsim.AppConfig{})
	if err != nil {
		b.Fatal(err)
	}
	study, err := env.Trace(app)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.SimulateOriginal(env.Machine); err != nil {
			b.Fatal(err)
		}
	}
}

// tracedBT traces BT at its default size for the transform benchmarks.
func tracedBT(b *testing.B) *overlap.ProfiledSet {
	b.Helper()
	env := overlapsim.NewEnvironment()
	app, err := overlapsim.NewApp("bt", overlapsim.AppConfig{})
	if err != nil {
		b.Fatal(err)
	}
	study, err := env.Trace(app)
	if err != nil {
		b.Fatal(err)
	}
	return study.Profiled
}

// BenchmarkTransformBT measures the overlap transformation alone: calling
// overlap.Transform directly, so no variant cache can hide the cost.
func BenchmarkTransformBT(b *testing.B) {
	ps := tracedBT(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := overlap.Transform(ps, overlap.Options{
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVariantFactsBT measures what a variant costs before its first
// replay: the transformation plus the replayer's validation and channel
// numbering of the result (trace.Set.ValidateOnce and Channels), which
// answer from memos when Transform derived the facts.
func BenchmarkVariantFactsBT(b *testing.B) {
	ps := tracedBT(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts, err := overlap.Transform(ps, overlap.Options{
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ts.ValidateOnce(); err != nil {
			b.Fatal(err)
		}
		ts.Channels()
	}
}
