// Package core wires the three stages of the paper's simulation
// environment (Fig. 1) into one object: the tracing tool that runs an MPI
// application once and extracts original + potential traces, the
// Dimemas-like replayer that reconstructs time behaviour on a configurable
// platform, and the Paraver-like visualization of the results.
//
// The intended flow mirrors the paper exactly:
//
//	env := core.NewEnvironment()
//	study, _ := env.Trace(app)                  // one real (instrumented) run
//	cmp, _ := study.Compare(env.Machine, opts)  // replay original vs overlapped
//	fmt.Println(cmp.Speedup())
//	cmp.RenderGantt(os.Stdout, 80)              // qualitative comparison
//
// Study is the one traced-study type: every traced workload of the sweep
// Runner (sweep.Workload), and so every sweep point and experiment, holds
// one. It caches its variants in a memo.Map keyed by variant name, the
// memo the Runner uses for workloads and replays: variants build in
// parallel, one transform per name, and a failed or panicked transform
// stays failed.
package core

import (
	"fmt"
	"io"

	"overlapsim/internal/machine"
	"overlapsim/internal/memo"
	"overlapsim/internal/overlap"
	"overlapsim/internal/paraver"
	"overlapsim/internal/replay"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
)

// Environment is the configured simulation environment.
type Environment struct {
	// Machine is the target platform for replays; individual calls can
	// override it.
	Machine machine.Config
	// Chunks is the partition granularity of automatic overlap.
	Chunks int
}

// NewEnvironment returns an environment on the default platform with the
// default chunk granularity (8).
func NewEnvironment() *Environment {
	return &Environment{Machine: machine.Default(), Chunks: 8}
}

// Trace executes the application once under instrumentation and returns the
// study holding the original trace and the measured profiles.
func (e *Environment) Trace(app tracer.App) (*Study, error) {
	ps, err := tracer.Trace(app, tracer.Options{Chunks: e.Chunks})
	if err != nil {
		return nil, err
	}
	return &Study{Profiled: ps}, nil
}

// FromProfiled wraps an already-obtained profiled set (for example, one
// assembled from trace files) into a study.
func (e *Environment) FromProfiled(ps *overlap.ProfiledSet) (*Study, error) {
	if ps == nil || ps.Original == nil {
		return nil, fmt.Errorf("core: nil profiled set")
	}
	if err := trace.Validate(ps.Original); err != nil {
		return nil, err
	}
	return &Study{Profiled: ps}, nil
}

// FromTrace wraps a bare original trace with no measured profiles; the
// real-pattern transform then falls back to its conservative defaults while
// the linear-pattern transform works fully.
func (e *Environment) FromTrace(ts *trace.Set) (*Study, error) {
	ann := make([]map[int]overlap.Annotation, ts.NRanks())
	for i := range ann {
		ann[i] = map[int]overlap.Annotation{}
	}
	return e.FromProfiled(&overlap.ProfiledSet{Original: ts, Annotations: ann, Chunks: e.Chunks})
}

// Study is one traced application with cached overlapped variants. Every
// method is safe for concurrent use, so sweep workers can replay one study
// on many platforms at once. A literal with Profiled set is ready to use.
type Study struct {
	Profiled *overlap.ProfiledSet
	variants memo.Map[string, *trace.Set] // by variant name
}

// Original returns the non-overlapped trace.
func (s *Study) Original() *trace.Set { return s.Profiled.Original }

// Variant returns (building and caching on first use) the overlapped trace
// for the given transformation options.
func (s *Study) Variant(opts overlap.Options) (*trace.Set, error) {
	ts, _, err := s.variants.Get(opts.Variant(s.Profiled.Chunks), "transform", func() (*trace.Set, error) {
		return overlap.Transform(s.Profiled, opts)
	})
	return ts, err
}

// SimulateOriginal replays the original trace on the platform.
func (s *Study) SimulateOriginal(m machine.Config) (*replay.Result, error) {
	return replay.Simulate(s.Profiled.Original, m)
}

// SimulateVariant replays an overlapped variant on the platform.
func (s *Study) SimulateVariant(m machine.Config, opts overlap.Options) (*replay.Result, error) {
	ts, err := s.Variant(opts)
	if err != nil {
		return nil, err
	}
	return replay.Simulate(ts, m)
}

// Compare replays the original and one overlapped variant on the same
// platform and pairs the results for quantitative and qualitative study.
func (s *Study) Compare(m machine.Config, opts overlap.Options) (*Comparison, error) {
	orig, err := s.SimulateOriginal(m)
	if err != nil {
		return nil, err
	}
	over, err := s.SimulateVariant(m, opts)
	if err != nil {
		return nil, err
	}
	return &Comparison{Original: orig, Overlapped: over}, nil
}

// Comparison pairs a non-overlapped and an overlapped replay of the same
// application on the same platform.
type Comparison struct {
	Original   *replay.Result
	Overlapped *replay.Result
}

// Speedup returns T_original / T_overlapped (1 when T_overlapped <= 0).
func (c *Comparison) Speedup() float64 {
	if c.Overlapped.Total <= 0 {
		return 1
	}
	return float64(c.Original.Total) / float64(c.Overlapped.Total)
}

// RenderGantt writes the side-by-side ASCII comparison of both executions
// on a shared time scale — the Paraver stage of the environment.
func (c *Comparison) RenderGantt(w io.Writer, width int) error {
	return paraver.RenderComparison(w, c.Original.Timelines, c.Overlapped.Timelines,
		paraver.GanttOptions{Width: width, Legend: true})
}

// WriteSummaries writes the per-rank state profiles of both executions.
func (c *Comparison) WriteSummaries(w io.Writer) error {
	if err := paraver.WriteSummary(w, paraver.Summarize(c.Original.Timelines)); err != nil {
		return err
	}
	return paraver.WriteSummary(w, paraver.Summarize(c.Overlapped.Timelines))
}

// WritePRV dumps both executions as Paraver-style trace files.
func (c *Comparison) WritePRV(orig, over io.Writer) error {
	if err := paraver.WritePRV(orig, c.Original.Timelines); err != nil {
		return err
	}
	return paraver.WritePRV(over, c.Overlapped.Timelines)
}
