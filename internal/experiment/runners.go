package experiment

import (
	"fmt"
	"io"
	"sort"

	"overlapsim/internal/analytic"
	"overlapsim/internal/apps"
	"overlapsim/internal/core"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/stats"
	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// Def describes a runnable experiment.
type Def struct {
	ID    string
	Title string
	Run   func(s *Suite, w io.Writer) error
}

// All is the experiment registry: every experiment, in the order
// `overlapsim run all` runs them.
var All = []Def{
	{"f1", "Fig.1 pipeline: trace -> simulate -> visualize, original vs overlapped", RunF1},
	{"e1", "Finding 1: real vs ideal computation patterns", RunE1},
	{"e2", "Finding 2: speedup at intermediate bandwidth (ideal patterns)", RunE2},
	{"e2f", "Implied figure: speedup vs bandwidth curves", RunE2f},
	{"e3", "Finding 3: iso-performance bandwidth reduction", RunE3},
	{"a1", "Ablation: overlapping mechanisms in isolation", RunA1},
	{"a2", "Ablation: chunk granularity", RunA2},
	{"a3", "Ablation: network parameters (buses, eager threshold)", RunA3},
	{"b1", "Baseline: Sancho et al. analytic model vs simulation", RunB1},
	{"s1", "Extension: wavefront overlap benefit vs process-grid size", RunS1},
}

// Find returns the experiment definition with the given id.
func Find(id string) (Def, error) {
	for _, d := range All {
		if d.ID == id {
			return d, nil
		}
	}
	ids := make([]string, len(All))
	for i, d := range All {
		ids[i] = d.ID
	}
	sort.Strings(ids)
	return Def{}, fmt.Errorf("experiment: unknown id %q (have %v)", id, ids)
}

// RunF1 exercises the full Fig. 1 pipeline on the pingpong kernel and
// renders the qualitative comparison the Paraver stage provides.
func RunF1(s *Suite, w io.Writer) error {
	name := "pingpong"
	st, err := s.Study(name)
	if err != nil {
		return err
	}
	bw, err := s.intermediate(st)
	if err != nil {
		return err
	}
	m := s.Machine.WithBandwidth(bw)
	cmp, err := st.Compare(m, bothLinear)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "F1: tracing tool -> Dimemas-like replay -> Paraver-like view (%s, %s)\n\n", name, m)
	if err := cmp.RenderGantt(w, 72); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return cmp.WriteSummaries(w)
}

// RunE1 reproduces finding 1: with real (measured) patterns the potential
// for automatic overlap is negligible; ideal (sequential) patterns unlock
// it.
func RunE1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "E1: speedup of automatic overlap at intermediate bandwidth, real vs ideal patterns")
	tb := stats.NewTable("app", "bandwidth", "real-pattern", "ideal-pattern", "verdict")
	for _, name := range paperAppsOf(s) {
		st, err := s.Study(name)
		if err != nil {
			return err
		}
		bw, err := s.intermediate(st)
		if err != nil {
			return err
		}
		m := s.Machine.WithBandwidth(bw)
		real, err := speedup(st, m, bothReal)
		if err != nil {
			return err
		}
		ideal, err := speedup(st, m, bothLinear)
		if err != nil {
			return err
		}
		verdict := "real<<ideal"
		if stats.PercentGain(real) > stats.PercentGain(ideal)/2 {
			verdict = "comparable"
		}
		tb.AddRow(name, fmtBW(bw), fmtPct(stats.PercentGain(real)), fmtPct(stats.PercentGain(ideal)), verdict)
	}
	return tb.Render(w)
}

// RunE2 reproduces finding 2: the per-application speedup table at
// intermediate bandwidth with ideal patterns, next to the paper's reported
// values. The per-app grid fans out on the suite's sweep engine; rows come
// back in app order regardless of the worker count.
func RunE2(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "E2: speedup at intermediate bandwidth with ideal (sequential) patterns")
	names := paperAppsOf(s)
	rows, err := sweep.Map(s.engine(), len(names), func(i int) ([]string, error) {
		name := names[i]
		st, err := s.Study(name)
		if err != nil {
			return nil, err
		}
		bw, err := s.intermediate(st)
		if err != nil {
			return nil, err
		}
		cmp, err := st.Compare(s.Machine.WithBandwidth(bw), bothLinear)
		if err != nil {
			return nil, err
		}
		return []string{name, fmtBW(bw),
			units.Duration(cmp.Original.Total).String(), units.Duration(cmp.Overlapped.Total).String(),
			fmtPct(stats.PercentGain(cmp.Speedup())), fmtPct(PaperE2[name])}, nil
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("app", "bandwidth", "T-original", "T-overlap", "speedup", "paper")
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// RunE2f reproduces the implied per-app figure: speedup of the overlapped
// execution across the bandwidth range, showing benefits "in a wide range
// of network bandwidth" with the peak at the intermediate regime.
func RunE2f(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "E2f: ideal-pattern overlap speedup vs bandwidth")
	grid := bandwidthGrid()
	names := paperAppsOf(s)
	// The full app × bandwidth cross product, expressed as a sweep grid
	// and simulated point-by-point on the worker pool.
	pts := sweep.Grid{Apps: names, Bandwidths: grid}.Expand()
	cells, err := sweep.Map(s.engine(), len(pts), func(i int) (string, error) {
		p := pts[i]
		st, err := s.Study(p.App)
		if err != nil {
			return "", err
		}
		sp, err := speedup(st, s.Machine.WithBandwidth(p.Bandwidth), bothLinear)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.2f", sp), nil
	})
	if err != nil {
		return err
	}
	header := []string{"app"}
	for _, bw := range grid {
		header = append(header, fmtBW(bw))
	}
	tb := stats.NewTable(header...)
	for ai, name := range names {
		row := append([]string{name}, cells[ai*len(grid):(ai+1)*len(grid)]...)
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// RunE3 reproduces finding 3: the bandwidth the overlapped execution needs
// to match the original execution's performance at a high reference
// bandwidth is orders of magnitude lower.
func RunE3(s *Suite, w io.Writer) error {
	ref := 32 * units.GBPerSec
	fmt.Fprintf(w, "E3: bandwidth needed by the overlapped execution to match the original at %s\n", ref)
	names := paperAppsOf(s)
	rows, err := sweep.Map(s.engine(), len(names), func(i int) ([]string, error) {
		name := names[i]
		st, err := s.Study(name)
		if err != nil {
			return nil, err
		}
		origRef, err := st.SimulateOriginal(s.Machine.WithBandwidth(ref))
		if err != nil {
			return nil, err
		}
		iso, ok, err := IsoBandwidth(st, s.Machine, ref, bothLinear, 0.02)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []string{name, units.Duration(origRef.Total).String(), "unreachable", "-"}, nil
		}
		return []string{name, units.Duration(origRef.Total).String(), fmtBW(iso),
			fmt.Sprintf("%.0fx", float64(ref)/float64(iso))}, nil
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("app", "T-target", "iso-bandwidth", "reduction")
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// RunA1 studies each overlapping mechanism separately, the capability the
// paper's tracing tool explicitly provides (section II-B).
func RunA1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "A1: overlap mechanisms in isolation (ideal patterns, intermediate bandwidth)")
	names := paperAppsOf(s)
	mechs := []overlap.Mechanism{0, overlap.EarlySend, overlap.LateRecv, overlap.BothMechanisms}
	pts := sweep.Grid{Apps: names, Mechanisms: mechs}.Expand()
	cells, err := sweep.Map(s.engine(), len(pts), func(i int) (string, error) {
		p := pts[i]
		st, err := s.Study(p.App)
		if err != nil {
			return "", err
		}
		bw, err := s.intermediate(st)
		if err != nil {
			return "", err
		}
		sp, err := speedup(st, s.Machine.WithBandwidth(bw),
			overlap.Options{Mechanisms: p.Mechanisms, Pattern: overlap.PatternLinear})
		if err != nil {
			return "", err
		}
		return fmtPct(stats.PercentGain(sp)), nil
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("app", "chunk-only", "early-send", "late-recv", "both")
	for ai, name := range names {
		row := append([]string{name}, cells[ai*len(mechs):(ai+1)*len(mechs)]...)
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// RunA2 sweeps the partial-message granularity, with and without a
// per-message CPU overhead: finer chunks pipeline better but pay the
// posting cost more often, so a real platform has an optimum.
func RunA2(s *Suite, w io.Writer) error {
	chunkCounts := []int{1, 2, 4, 8, 16, 32}
	names := paperAppsOf(s)
	for _, ovh := range []units.Duration{0, 2 * units.Microsecond} {
		fmt.Fprintf(w, "A2: chunk-count sweep (ideal patterns, intermediate bandwidth, CPU overhead %v)\n", ovh)
		pts := sweep.Grid{Apps: names, Chunks: chunkCounts}.Expand()
		cells, err := sweep.Map(s.engine(), len(pts), func(i int) (string, error) {
			p := pts[i]
			st, err := s.Study(p.App)
			if err != nil {
				return "", err
			}
			bw, err := s.intermediate(st)
			if err != nil {
				return "", err
			}
			m := s.Machine.WithBandwidth(bw)
			m.CPUOverhead = ovh
			sp, err := speedup(st, m, overlap.Options{
				Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear, Chunks: p.Chunks})
			if err != nil {
				return "", err
			}
			return fmtPct(stats.PercentGain(sp)), nil
		})
		if err != nil {
			return err
		}
		header := []string{"app"}
		for _, c := range chunkCounts {
			header = append(header, fmt.Sprintf("c=%d", c))
		}
		tb := stats.NewTable(header...)
		for ai, name := range names {
			row := append([]string{name}, cells[ai*len(chunkCounts):(ai+1)*len(chunkCounts)]...)
			tb.AddRow(row...)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunA3 sweeps the Dimemas network parameters: bus count and eager
// threshold, on the sweep3d study.
func RunA3(s *Suite, w io.Writer) error {
	name := "sweep3d"
	st, err := s.Study(name)
	if err != nil {
		return err
	}
	bw, err := s.intermediate(st)
	if err != nil {
		return err
	}
	base := s.Machine.WithBandwidth(bw)

	// Each parameter axis is a one-dimensional sweep over platform
	// variants: fan the replays out, then render rows in axis order.
	paramSweep := func(n int, machineAt func(i int) machine.Config, labelAt func(i int) string) ([][]string, error) {
		return sweep.Map(s.engine(), n, func(i int) ([]string, error) {
			cmp, err := st.Compare(machineAt(i), bothLinear)
			if err != nil {
				return nil, err
			}
			return []string{labelAt(i), units.Duration(cmp.Original.Total).String(),
				units.Duration(cmp.Overlapped.Total).String(), fmtPct(stats.PercentGain(cmp.Speedup()))}, nil
		})
	}
	renderParam := func(header string, rows [][]string) error {
		tb := stats.NewTable(header, "T-original", "T-overlap", "speedup")
		for _, row := range rows {
			tb.AddRow(row...)
		}
		return tb.Render(w)
	}

	fmt.Fprintf(w, "A3: network-parameter ablation on %s at %s\n", name, fmtBW(bw))
	busCounts := []int{1, 2, 4, 8, 0}
	rows, err := paramSweep(len(busCounts),
		func(i int) machine.Config { return base.WithBuses(busCounts[i]) },
		func(i int) string {
			if busCounts[i] == 0 {
				return "inf"
			}
			return fmt.Sprintf("%d", busCounts[i])
		})
	if err != nil {
		return err
	}
	if err := renderParam("buses", rows); err != nil {
		return err
	}

	thresholds := []units.Bytes{0, units.KB, 32 * units.KB, -1}
	rows, err = paramSweep(len(thresholds),
		func(i int) machine.Config {
			m := base
			m.EagerThreshold = thresholds[i]
			return m
		},
		func(i int) string {
			switch thresholds[i] {
			case 0:
				return "rendezvous-all"
			case -1:
				return "eager-all"
			}
			return thresholds[i].String()
		})
	if err != nil {
		return err
	}
	if err := renderParam("eager-threshold", rows); err != nil {
		return err
	}

	overheads := []units.Duration{0, units.Microsecond, 2 * units.Microsecond, 4 * units.Microsecond}
	rows, err = paramSweep(len(overheads),
		func(i int) machine.Config {
			m := base
			m.CPUOverhead = overheads[i]
			return m
		},
		func(i int) string { return overheads[i].String() })
	if err != nil {
		return err
	}
	return renderParam("cpu-overhead", rows)
}

// RunB1 compares the Sancho et al. closed-form predictions with the
// simulated results at the intermediate bandwidth.
func RunB1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "B1: analytic (Sancho et al.) vs simulated overlap benefit, intermediate bandwidth")
	tb := stats.NewTable("app", "bandwidth", "analytic", "simulated-ideal", "simulated-real")
	for _, name := range paperAppsOf(s) {
		st, err := s.Study(name)
		if err != nil {
			return err
		}
		bw, err := s.intermediate(st)
		if err != nil {
			return err
		}
		m := s.Machine.WithBandwidth(bw)
		mips := m.MIPS
		if mips == 0 {
			mips = st.Original().MIPS
		}
		model := analytic.FromStats(trace.Stats(st.Original()), mips)
		ideal, err := speedup(st, m, bothLinear)
		if err != nil {
			return err
		}
		real, err := speedup(st, m, bothReal)
		if err != nil {
			return err
		}
		tb.AddRow(name, fmtBW(bw),
			fmtPct(stats.PercentGain(model.Speedup(m))),
			fmtPct(stats.PercentGain(ideal)),
			fmtPct(stats.PercentGain(real)))
	}
	return tb.Render(w)
}

// RunS1 extends the study in the paper's future-work direction: how the
// wavefront pipelining benefit scales with the process-grid size. The
// dependency chain grows with the grid diagonal, so the serialized original
// run degrades while the chunk-pipelined run keeps the diagonal short —
// the benefit must grow with rank count.
func RunS1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "S1: sweep3d ideal-pattern overlap benefit vs process-grid size")
	rankCounts := []int{4, 16, 36}
	size, iters := 1024, 1
	if s.Quick {
		rankCounts = []int{4, 16}
		size = 256
	}
	tb := stats.NewTable("ranks", "grid", "bandwidth", "T-original", "T-overlap", "speedup")
	for _, ranks := range rankCounts {
		st, err := s.cachedStudy("sweep3d", apps.Config{Ranks: ranks, Size: size, Iterations: iters})
		if err != nil {
			return err
		}
		bw, err := IntermediateBandwidth(st, s.Machine)
		if err != nil {
			return err
		}
		cmp, err := st.Compare(s.Machine.WithBandwidth(bw), bothLinear)
		if err != nil {
			return err
		}
		side := 1
		for side*side < ranks {
			side++
		}
		tb.AddRow(fmt.Sprint(ranks), fmt.Sprintf("%dx%d", side, side), fmtBW(bw),
			units.Duration(cmp.Original.Total).String(), units.Duration(cmp.Overlapped.Total).String(),
			fmtPct(stats.PercentGain(cmp.Speedup())))
	}
	return tb.Render(w)
}

// speedup replays the study's original and overlapped executions on m and
// returns T_original / T_overlapped.
func speedup(st *core.Study, m machine.Config, opts overlap.Options) (float64, error) {
	cmp, err := st.Compare(m, opts)
	if err != nil {
		return 0, err
	}
	return cmp.Speedup(), nil
}

// paperAppsOf returns the evaluation app list, shrunk in quick mode.
func paperAppsOf(s *Suite) []string {
	if s.Quick {
		return []string{"bt", "cg", "sweep3d"}
	}
	return apps.PaperApps()
}
