// Package experiment is the harness that regenerates the paper's
// evaluation: every finding of section III plus the ablations the
// environment was explicitly designed to support (studying each
// overlapping mechanism separately, chunk granularity, network parameters)
// and the comparison against the Sancho et al. analytical baseline.
//
// Experiment identifiers are the ids of the All registry, in its order:
//
//	F1  — the Fig. 1 pipeline, end to end, with visual comparison
//	E1  — real vs ideal computation patterns (finding 1)
//	E2  — per-app speedup at intermediate bandwidth (finding 2)
//	E2f — speedup vs bandwidth curves (the implied per-app figure)
//	E3  — iso-performance bandwidth reduction (finding 3)
//	A1  — mechanism ablation (early-send / late-recv / both)
//	A2  — chunk-count ablation
//	A3  — network-parameter ablation (buses, eager threshold)
//	B1  — analytic baseline vs simulation
//	S1  — extension: wavefront overlap benefit vs process-grid size
//
// Every experiment runs on the suite's sweep Runner: Suite.Study returns
// the Runner's workload for an app, traced once per suite, and the
// experiments, IntermediateBandwidth and IsoBandwidth replay through its
// memo, so a (trace, platform) pair replays once per suite and an error,
// or a recorded panic, is what every later caller gets. Only F1 replays
// with timelines (Workload.Study.Compare), to render them.
package experiment

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

// bandwidthGrid returns the logarithmic bandwidth grid shared by the
// sweeps: powers of two from 1 MB/s to 64 GB/s.
func bandwidthGrid() []units.Bandwidth {
	var out []units.Bandwidth
	for bw := units.Bandwidth(units.MBPerSec); bw <= 64*units.GBPerSec; bw *= 2 {
		out = append(out, bw)
	}
	return out
}

// IntermediateBandwidth locates the paper's "intermediate" regime: the
// bandwidth at which the original execution spends a time in communication
// comparable to computation (mean blocked fraction closest to 0.5). The
// search is a deterministic sweep over the logarithmic grid.
func IntermediateBandwidth(w *sweep.Workload, base machine.Config) (units.Bandwidth, error) {
	best := units.Bandwidth(0)
	bestDist := math.Inf(1)
	for _, bw := range bandwidthGrid() {
		res, err := w.Replay(nil, base.WithBandwidth(bw))
		if err != nil {
			return 0, err
		}
		d := math.Abs(res.Blocked - 0.5)
		if d < bestDist {
			bestDist, best = d, bw
		}
	}
	return best, nil
}

// IsoBandwidth finds the minimum bandwidth at which the overlapped
// execution matches (within tol) the original execution's runtime on the
// reference bandwidth — finding 3's measurement. ok is false when even the
// reference bandwidth cannot reach the target with overlap.
func IsoBandwidth(w *sweep.Workload, base machine.Config, ref units.Bandwidth, opts overlap.Options, tol float64) (units.Bandwidth, bool, error) {
	origRef, err := w.Replay(nil, base.WithBandwidth(ref))
	if err != nil {
		return 0, false, err
	}
	target := float64(origRef.Total) * (1 + tol)
	meets := func(bw units.Bandwidth) (bool, error) {
		res, err := w.Replay(&opts, base.WithBandwidth(bw))
		if err != nil {
			return false, err
		}
		return float64(res.Total) <= target, nil
	}
	okAtRef, err := meets(ref)
	if err != nil {
		return 0, false, err
	}
	if !okAtRef {
		return 0, false, nil
	}
	// Binary search in log space: runtime is non-increasing in bandwidth.
	lo, hi := math.Log(float64(64*units.KBPerSec)), math.Log(float64(ref))
	okAtLo, err := meets(units.Bandwidth(math.Exp(lo)))
	if err != nil {
		return 0, false, err
	}
	if okAtLo {
		return units.Bandwidth(math.Exp(lo)), true, nil
	}
	for i := 0; i < 30; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(units.Bandwidth(math.Exp(mid)))
		if err != nil {
			return 0, false, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.Bandwidth(math.Exp(hi)), true, nil
}

// Suite binds the experiment set to a platform and problem scale.
type Suite struct {
	// Machine is the base platform; bandwidth is swept per experiment.
	Machine machine.Config
	// Chunks is the partition granularity (default 8).
	Chunks int
	// Quick shrinks the workloads for fast runs (tests, smoke benches).
	Quick bool
	// Workers bounds the sweep worker pool the experiments fan out on;
	// 0 means one worker per CPU. Results are identical for any value.
	Workers int
	// Cache, when non-nil, persists profiled trace sets across processes,
	// so repeated experiment runs skip the instrumented runs. Results are
	// identical with a cold, warm or absent cache. Writes are best-effort;
	// the first failed one is reported by the Runner's CacheStoreErr. It
	// is read once, when the suite first builds its Runner.
	Cache *sweep.TraceCache

	once   sync.Once
	runner *sweep.Runner
}

// NewSuite returns a suite on the default platform.
func NewSuite() *Suite {
	return &Suite{Machine: machine.Default(), Chunks: 8}
}

// Runner returns the sweep Runner the suite's experiments trace and replay
// on, built on first use over the suite's Cache. Its Stats account the
// work of every experiment the suite has run.
func (s *Suite) Runner() *sweep.Runner {
	s.once.Do(func() { s.runner = &sweep.Runner{Cache: s.Cache} })
	return s.runner
}

// engine returns the sweep worker pool the suite's experiments fan out on.
func (s *Suite) engine() sweep.Engine { return sweep.Engine{Workers: s.Workers} }

// AppConfig returns the workload configuration the suite uses for an app.
func (s *Suite) AppConfig(name string) apps.Config {
	spec, err := apps.Lookup(name)
	if err != nil {
		return apps.Config{}
	}
	cfg := spec.Default
	if s.Quick {
		switch name {
		case "pingpong":
			cfg = apps.Config{Ranks: 2, Size: 512, Iterations: 2}
		case "bt":
			cfg = apps.Config{Ranks: 4, Size: 10, Iterations: 2}
		case "sweep3d":
			cfg = apps.Config{Ranks: 4, Size: 256, Iterations: 1}
		case "cg":
			cfg = apps.Config{Ranks: 4, Size: 1024, Iterations: 2}
		default:
			cfg = apps.Config{Ranks: 4, Size: spec.Default.Size / 2, Iterations: 2}
		}
	}
	return cfg
}

// Study returns the app's workload at AppConfig, traced once per suite.
// It is safe for concurrent use; parallel callers for the same app share
// one instrumented run.
func (s *Suite) Study(name string) (*sweep.Workload, error) {
	return s.workload(name, s.AppConfig(name))
}

// workload returns any workload of the app on the suite's Runner, at the
// suite's chunk granularity: Study's, or S1's scaled ones.
func (s *Suite) workload(name string, cfg apps.Config) (*sweep.Workload, error) {
	return s.Runner().Workload(name, cfg, cmp.Or(s.Chunks, 8))
}

// bothLinear and bothReal are the two headline variants.
var (
	bothLinear = overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}
	bothReal   = overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
)

// PaperE2 holds the speedups the paper reports at intermediate bandwidth
// with ideal patterns (percent gains), for side-by-side comparison.
var PaperE2 = map[string]float64{
	"bt":      30,
	"cg":      10,
	"pop":     10,
	"alya":    40,
	"specfem": 65,
	"sweep3d": 160,
}

func fmtBW(bw units.Bandwidth) string { return bw.String() }

func fmtPct(p float64) string { return fmt.Sprintf("%+.1f%%", p) }
