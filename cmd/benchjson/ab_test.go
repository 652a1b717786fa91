package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAB: medians, the ref's IQR, wins and flags of three rounds per side,
// with allocs/op read by unit even behind a custom metric (a benchmark
// that calls b.ReportMetric prints it before B/op).
func TestAB(t *testing.T) {
	ref := `BenchmarkA-2   100   1000 ns/op   12.5 ns/step   64 B/op   40 allocs/op
BenchmarkB-2   100   500 ns/op   0 B/op   0 allocs/op
BenchmarkA-2   100   1100 ns/op   13.0 ns/step   64 B/op   40 allocs/op
BenchmarkB-2   100   510 ns/op   0 B/op   0 allocs/op
BenchmarkA-2   100   1200 ns/op   12.0 ns/step   64 B/op   40 allocs/op
BenchmarkB-2   100   490 ns/op   0 B/op   0 allocs/op
`
	cur := `BenchmarkA-2   100   600 ns/op   7.0 ns/step   32 B/op   20 allocs/op
BenchmarkB-2   100   505 ns/op   0 B/op   1 allocs/op
BenchmarkNew-2   100   42 ns/op   0 B/op   0 allocs/op
BenchmarkA-2   100   700 ns/op   7.5 ns/step   32 B/op   20 allocs/op
BenchmarkB-2   100   495 ns/op   0 B/op   0 allocs/op
BenchmarkA-2   100   1250 ns/op   7.1 ns/step   32 B/op   20 allocs/op
BenchmarkB-2   100   500 ns/op   0 B/op   0 allocs/op
`
	parse := func(s string) []Benchmark {
		bs, err := Parse(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	var out bytes.Buffer
	ab(&out, parse(ref), parse(cur))
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "Benchmark") {
			rows[f[0]] = f
		}
	}
	for name, want := range map[string]string{
		// ref medians 1100 ns and 40 allocs, IQR 200 ns; the change wins
		// rounds 1 and 2 and its median (700) is beyond the IQR.
		"BenchmarkA": "BenchmarkA 1100 700 -36.4% 200 2/3 40 20 faster allocs",
		// ref IQR 20 ns; one change round allocates once: no flag.
		"BenchmarkB":   "BenchmarkB 500 500 +0.0% 20 1/3 0 0",
		"BenchmarkNew": "BenchmarkNew - 42 (not in the ref)",
	} {
		if got := strings.Join(rows[name], " "); got != want {
			t.Errorf("row %q, want %q", got, want)
		}
	}
}

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		vs       []float64
		med, iqr float64
	}{
		{nil, 0, 0},
		{[]float64{5}, 5, 0},
		{[]float64{3, 1}, 1, 2},
		{[]float64{4, 1, 3, 2, 5}, 3, 3},
		{[]float64{8, 1, 7, 2, 6, 3}, 3, 5},
	} {
		if med, iqr := quartiles(tc.vs); med != tc.med || iqr != tc.iqr {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.vs, med, iqr, tc.med, tc.iqr)
		}
	}
}
