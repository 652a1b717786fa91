package experiment

import (
	"fmt"
	"io"
	"sort"

	"overlapsim/internal/analytic"
	"overlapsim/internal/apps"
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
	st, _, m, err := s.atIntermediate(name)
	if err != nil {
		return err
	}
	cmp, err := st.Study.Compare(m, bothLinear)
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
	names := paperAppsOf(s)
	return s.table(w, []string{"app", "bandwidth", "real-pattern", "ideal-pattern", "verdict"}, len(names), func(i int) ([]string, error) {
		st, bw, m, err := s.atIntermediate(names[i])
		if err != nil {
			return nil, err
		}
		real, err := st.ReplayPair(bothReal, m)
		if err != nil {
			return nil, err
		}
		ideal, err := st.ReplayPair(bothLinear, m)
		if err != nil {
			return nil, err
		}
		verdict := "real<<ideal"
		if stats.PercentGain(real.Speedup) > stats.PercentGain(ideal.Speedup)/2 {
			verdict = "comparable"
		}
		return []string{names[i], fmtBW(bw),
			fmtPct(stats.PercentGain(real.Speedup)), fmtPct(stats.PercentGain(ideal.Speedup)), verdict}, nil
	})
}

// RunE2 reproduces finding 2: the per-application speedup table at
// intermediate bandwidth with ideal patterns, next to the paper's reported
// values.
func RunE2(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "E2: speedup at intermediate bandwidth with ideal (sequential) patterns")
	names := paperAppsOf(s)
	return s.table(w, []string{"app", "bandwidth", "T-original", "T-overlap", "speedup", "paper"}, len(names), func(i int) ([]string, error) {
		st, bw, m, err := s.atIntermediate(names[i])
		if err != nil {
			return nil, err
		}
		res, err := st.ReplayPair(bothLinear, m)
		if err != nil {
			return nil, err
		}
		return []string{names[i], fmtBW(bw),
			units.Duration(res.TOriginal).String(), units.Duration(res.TOverlap).String(),
			fmtPct(stats.PercentGain(res.Speedup)), fmtPct(PaperE2[names[i]])}, nil
	})
}

// RunE2f reproduces the implied per-app figure: speedup of the overlapped
// execution across the bandwidth range, showing benefits "in a wide range
// of network bandwidth" with the peak at the intermediate regime.
func RunE2f(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "E2f: ideal-pattern overlap speedup vs bandwidth")
	grid := bandwidthGrid()
	header := []string{"app"}
	for _, bw := range grid {
		header = append(header, fmtBW(bw))
	}
	return s.appTable(w, header, func(name string, j int) (string, error) {
		st, err := s.Study(name)
		if err != nil {
			return "", err
		}
		res, err := st.ReplayPair(bothLinear, s.Machine.WithBandwidth(grid[j]))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%.2f", res.Speedup), nil
	})
}

// RunE3 reproduces finding 3: the bandwidth the overlapped execution needs
// to match the original execution's performance at a high reference
// bandwidth is orders of magnitude lower.
func RunE3(s *Suite, w io.Writer) error {
	ref := 32 * units.GBPerSec
	fmt.Fprintf(w, "E3: bandwidth needed by the overlapped execution to match the original at %s\n", ref)
	names := paperAppsOf(s)
	return s.table(w, []string{"app", "T-target", "iso-bandwidth", "reduction"}, len(names), func(i int) ([]string, error) {
		st, err := s.Study(names[i])
		if err != nil {
			return nil, err
		}
		origRef, err := st.Replay(nil, s.Machine.WithBandwidth(ref))
		if err != nil {
			return nil, err
		}
		iso, ok, err := IsoBandwidth(st, s.Machine, ref, bothLinear, 0.02)
		if err != nil {
			return nil, err
		}
		if !ok {
			return []string{names[i], units.Duration(origRef.Total).String(), "unreachable", "-"}, nil
		}
		return []string{names[i], units.Duration(origRef.Total).String(), fmtBW(iso),
			fmt.Sprintf("%.0fx", float64(ref)/float64(iso))}, nil
	})
}

// RunA1 studies each overlapping mechanism separately, the capability the
// paper's tracing tool explicitly provides (section II-B).
func RunA1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "A1: overlap mechanisms in isolation (ideal patterns, intermediate bandwidth)")
	mechs := []overlap.Mechanism{0, overlap.EarlySend, overlap.LateRecv, overlap.BothMechanisms}
	return s.appTable(w, []string{"app", "chunk-only", "early-send", "late-recv", "both"}, func(name string, j int) (string, error) {
		st, _, m, err := s.atIntermediate(name)
		if err != nil {
			return "", err
		}
		res, err := st.ReplayPair(overlap.Options{Mechanisms: mechs[j], Pattern: overlap.PatternLinear}, m)
		if err != nil {
			return "", err
		}
		return fmtPct(stats.PercentGain(res.Speedup)), nil
	})
}

// RunA2 sweeps the partial-message granularity, with and without a
// per-message CPU overhead: finer chunks pipeline better but pay the
// posting cost more often, so a real platform has an optimum.
func RunA2(s *Suite, w io.Writer) error {
	chunkCounts := []int{1, 2, 4, 8, 16, 32}
	header := []string{"app"}
	for _, c := range chunkCounts {
		header = append(header, fmt.Sprintf("c=%d", c))
	}
	for _, ovh := range []units.Duration{0, 2 * units.Microsecond} {
		fmt.Fprintf(w, "A2: chunk-count sweep (ideal patterns, intermediate bandwidth, CPU overhead %v)\n", ovh)
		err := s.appTable(w, header, func(name string, j int) (string, error) {
			st, _, m, err := s.atIntermediate(name)
			if err != nil {
				return "", err
			}
			m.CPUOverhead = ovh
			res, err := st.ReplayPair(overlap.Options{
				Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear, Chunks: chunkCounts[j]}, m)
			if err != nil {
				return "", err
			}
			return fmtPct(stats.PercentGain(res.Speedup)), nil
		})
		if err != nil {
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
	st, bw, base, err := s.atIntermediate(name)
	if err != nil {
		return err
	}
	// Each parameter axis is a one-dimensional sweep over platform
	// variants: set(m, i) applies the axis's value i to m and labels it.
	axis := func(header string, n int, set func(m *machine.Config, i int) string) error {
		return s.table(w, []string{header, "T-original", "T-overlap", "speedup"}, n, func(i int) ([]string, error) {
			m := base
			label := set(&m, i)
			res, err := st.ReplayPair(bothLinear, m)
			if err != nil {
				return nil, err
			}
			return []string{label, units.Duration(res.TOriginal).String(),
				units.Duration(res.TOverlap).String(), fmtPct(stats.PercentGain(res.Speedup))}, nil
		})
	}

	fmt.Fprintf(w, "A3: network-parameter ablation on %s at %s\n", name, fmtBW(bw))
	busCounts := []int{1, 2, 4, 8, 0}
	err = axis("buses", len(busCounts), func(m *machine.Config, i int) string {
		*m = m.WithBuses(busCounts[i])
		if busCounts[i] == 0 {
			return "inf"
		}
		return fmt.Sprintf("%d", busCounts[i])
	})
	if err != nil {
		return err
	}

	thresholds := []units.Bytes{0, units.KB, 32 * units.KB, -1}
	err = axis("eager-threshold", len(thresholds), func(m *machine.Config, i int) string {
		m.EagerThreshold = thresholds[i]
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

	overheads := []units.Duration{0, units.Microsecond, 2 * units.Microsecond, 4 * units.Microsecond}
	return axis("cpu-overhead", len(overheads), func(m *machine.Config, i int) string {
		m.CPUOverhead = overheads[i]
		return overheads[i].String()
	})
}

// RunB1 compares the Sancho et al. closed-form predictions with the
// simulated results at the intermediate bandwidth.
func RunB1(s *Suite, w io.Writer) error {
	fmt.Fprintln(w, "B1: analytic (Sancho et al.) vs simulated overlap benefit, intermediate bandwidth")
	names := paperAppsOf(s)
	return s.table(w, []string{"app", "bandwidth", "analytic", "simulated-ideal", "simulated-real"}, len(names), func(i int) ([]string, error) {
		st, bw, m, err := s.atIntermediate(names[i])
		if err != nil {
			return nil, err
		}
		mips := m.MIPS
		if mips == 0 {
			mips = st.Study.Original().MIPS
		}
		model := analytic.FromStats(trace.Stats(st.Study.Original()), mips)
		ideal, err := st.ReplayPair(bothLinear, m)
		if err != nil {
			return nil, err
		}
		real, err := st.ReplayPair(bothReal, m)
		if err != nil {
			return nil, err
		}
		return []string{names[i], fmtBW(bw),
			fmtPct(stats.PercentGain(model.Speedup(m))),
			fmtPct(stats.PercentGain(ideal.Speedup)),
			fmtPct(stats.PercentGain(real.Speedup))}, nil
	})
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
	return s.table(w, []string{"ranks", "grid", "bandwidth", "T-original", "T-overlap", "speedup"}, len(rankCounts), func(i int) ([]string, error) {
		ranks := rankCounts[i]
		st, err := s.workload("sweep3d", apps.Config{Ranks: ranks, Size: size, Iterations: iters})
		if err != nil {
			return nil, err
		}
		bw, err := IntermediateBandwidth(st, s.Machine)
		if err != nil {
			return nil, err
		}
		res, err := st.ReplayPair(bothLinear, s.Machine.WithBandwidth(bw))
		if err != nil {
			return nil, err
		}
		side := 1
		for side*side < ranks {
			side++
		}
		return []string{fmt.Sprint(ranks), fmt.Sprintf("%dx%d", side, side), fmtBW(bw),
			units.Duration(res.TOriginal).String(), units.Duration(res.TOverlap).String(),
			fmtPct(stats.PercentGain(res.Speedup))}, nil
	})
}

// atIntermediate returns the app's workload, its intermediate bandwidth
// and the suite's platform at that bandwidth.
func (s *Suite) atIntermediate(name string) (*sweep.Workload, units.Bandwidth, machine.Config, error) {
	st, err := s.Study(name)
	if err != nil {
		return nil, 0, machine.Config{}, err
	}
	bw, err := IntermediateBandwidth(st, s.Machine)
	if err != nil {
		return nil, 0, machine.Config{}, err
	}
	return st, bw, s.Machine.WithBandwidth(bw), nil
}

// table computes n rows on the suite's engine, row i by row(i), and
// renders them under header in row order, whatever the worker count. A
// failing row fails the table as "sweep: job i: …"; a panicking one is
// recovered and reported the same way.
func (s *Suite) table(w io.Writer, header []string, n int, row func(i int) ([]string, error)) error {
	rows, err := sweep.Map(s.engine(), n, row)
	if err != nil {
		return err
	}
	return render(w, header, rows)
}

// appTable renders the app × column table of the suite's evaluation apps:
// header names the app column and then the columns, and cell(app, j)
// computes column j of the app's row. Each cell is its own job on the
// suite's engine, so a failing one reports as "sweep: job i: …" with i
// its row-major index.
func (s *Suite) appTable(w io.Writer, header []string, cell func(app string, j int) (string, error)) error {
	names, cols := paperAppsOf(s), len(header)-1
	cells, err := sweep.Map(s.engine(), len(names)*cols, func(i int) (string, error) {
		return cell(names[i/cols], i%cols)
	})
	if err != nil {
		return err
	}
	rows := make([][]string, len(names))
	for ai, name := range names {
		rows[ai] = append([]string{name}, cells[ai*cols:(ai+1)*cols]...)
	}
	return render(w, header, rows)
}

// render writes rows as a table under header.
func render(w io.Writer, header []string, rows [][]string) error {
	tb := stats.NewTable(header...)
	for _, row := range rows {
		tb.AddRow(row...)
	}
	return tb.Render(w)
}

// paperAppsOf returns the evaluation app list, shrunk in quick mode.
func paperAppsOf(s *Suite) []string {
	if s.Quick {
		return []string{"bt", "cg", "sweep3d"}
	}
	return apps.PaperApps()
}
