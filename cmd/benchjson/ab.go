package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// runAB implements `benchjson ab REF.txt NEW.txt`: the same-host A/B
// table of two sides' `go test -bench -benchmem` outputs. Each file holds
// every round of its side in round order, so the k-th result of a
// benchmark in either file is round k (scripts/bench-ab.sh writes them).
func runAB(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("ab wants exactly two bench output files (ref.txt new.txt), got %d", len(args))
	}
	var sides [2][]Benchmark
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sides[i], err = Parse(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	ab(w, sides[0], sides[1])
	return nil
}

// ab prints, for every benchmark of cur in order of first appearance, the
// ref's and the change's median ns/op, their relative difference, the
// ref's interquartile range, in how many rounds the change was faster
// (ties count for neither side) and both median allocs/op. A median that
// differs from the ref's by more than the ref's own IQR is flagged
// "slower" or "faster" (ns/op) or "allocs" (allocs/op, where the IQR
// counts as at least allocSlack allocs and 1%). The flags inform only.
func ab(w io.Writer, ref, cur []Benchmark) {
	type runs struct{ ns, allocs []float64 }
	group := func(bs []Benchmark) (map[string]*runs, []string) {
		m := map[string]*runs{}
		var order []string
		for _, b := range bs {
			r := m[b.Name]
			if r == nil {
				r = &runs{}
				m[b.Name] = r
				order = append(order, b.Name)
			}
			r.ns = append(r.ns, b.NsPerOp)
			if b.AllocsPerOp >= 0 {
				r.allocs = append(r.allocs, float64(b.AllocsPerOp))
			}
		}
		return m, order
	}
	refs, _ := group(ref)
	curs, order := group(cur)
	fmt.Fprintf(w, "%-28s %14s %14s %8s %12s %6s %11s %11s  %s\n",
		"benchmark", "ref ns/op", "new ns/op", "change", "ref IQR", "wins", "ref allocs", "new allocs", "flags")
	for _, name := range order {
		r, c := refs[name], curs[name]
		mn, _ := quartiles(c.ns)
		if r == nil {
			fmt.Fprintf(w, "%-28s %14s %14.0f  (not in the ref)\n", name, "-", mn)
			continue
		}
		wins := 0
		for k := range min(len(r.ns), len(c.ns)) {
			if c.ns[k] < r.ns[k] {
				wins++
			}
		}
		mr, iq := quartiles(r.ns)
		ar, iqa := quartiles(r.allocs)
		an, _ := quartiles(c.allocs)
		flags := ""
		if mn-mr > iq {
			flags += " slower"
		}
		if mr-mn > iq {
			flags += " faster"
		}
		// Pool warmup makes allocs jitter: allow allocSlack allocs and 1%.
		iqa = max(iqa, allocSlack, ar/100)
		if len(r.allocs) > 0 && len(c.allocs) > 0 && (an-ar > iqa || ar-an > iqa) {
			flags += " allocs"
		}
		row := fmt.Sprintf("%-28s %14.0f %14.0f %8s %12.0f %3d/%-2d %11.0f %11.0f %s",
			name, mr, mn, deltaLabel(mr, mn), iq, wins, len(c.ns), ar, an, flags)
		fmt.Fprintln(w, strings.TrimRight(row, " "))
	}
	fmt.Fprintln(w, "\nflags: a median beyond the ref's IQR from the ref's median (ns/op: slower or faster; allocs/op, IQR at least 2 and 1%: allocs)")
}

// quartiles returns the median of vs and the distance between the medians
// of its lower and upper halves (0 for fewer than two values), with the
// lower-middle median Fold uses.
func quartiles(vs []float64) (med, iqr float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := slices.Clone(vs)
	med = median(s)
	if h := len(s) / 2; h > 0 {
		iqr = median(s[len(s)-h:]) - median(s[:h])
	}
	return med, iqr
}
