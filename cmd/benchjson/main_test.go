package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: overlapsim/internal/des
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngine      	     528	   2338487 ns/op	   24336 B/op	      13 allocs/op
BenchmarkEngineTyped-8 	     537	   2188243 ns/op	      52 B/op	       0 allocs/op
PASS
ok  	overlapsim/internal/des	2.869s
pkg: overlapsim
BenchmarkReplayBT 	   10000	    229650 ns/op
PASS
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := []Benchmark{
		{Name: "BenchmarkEngine", Iterations: 528, NsPerOp: 2338487, BytesPerOp: 24336, AllocsPerOp: 13},
		{Name: "BenchmarkEngineTyped", Iterations: 537, NsPerOp: 2188243, BytesPerOp: 52, AllocsPerOp: 0},
		{Name: "BenchmarkReplayBT", Iterations: 10000, NsPerOp: 229650, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bench %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := "BenchmarkFoo logging something\nBenchmarkBar-4   10   5.5 ns/op\n"
	got, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "BenchmarkBar" || got[0].NsPerOp != 5.5 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseRejectsCorruptResultLine(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX abc 12 ns/op\n")); err == nil {
		t.Error("expected error on corrupt iteration count")
	}
}

// TestFoldRepeatedRuns: -count results of one benchmark fold into their
// medians and ns/op range, a stalled run does not move the median, and a
// benchmark seen once passes unchanged, all in first-appearance order.
func TestFoldRepeatedRuns(t *testing.T) {
	in := `BenchmarkWarm-2   100   76000 ns/op   0 B/op   0 allocs/op
BenchmarkWarm-2   100   449000 ns/op   64 B/op   1 allocs/op
BenchmarkWarm-2   100   70000 ns/op   0 B/op   0 allocs/op
BenchmarkWarm-2   100   81000 ns/op   0 B/op   0 allocs/op
BenchmarkWarm-2   100   74000 ns/op   0 B/op   0 allocs/op
BenchmarkOnce-2   100   5.5 ns/op
BenchmarkPair-2   100   20 ns/op   8 B/op   2 allocs/op
BenchmarkPair-2   100   10 ns/op   16 B/op   1 allocs/op
`
	benches, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	got := Fold(benches)
	want := []Benchmark{
		{Name: "BenchmarkWarm", Iterations: 100, NsPerOp: 76000, BytesPerOp: 0, AllocsPerOp: 0,
			Runs: 5, MinNsPerOp: 70000, MaxNsPerOp: 449000},
		{Name: "BenchmarkOnce", Iterations: 100, NsPerOp: 5.5, BytesPerOp: -1, AllocsPerOp: -1},
		{Name: "BenchmarkPair", Iterations: 100, NsPerOp: 10, BytesPerOp: 8, AllocsPerOp: 1,
			Runs: 2, MinNsPerOp: 10, MaxNsPerOp: 20},
	}
	if len(got) != len(want) {
		t.Fatalf("folded into %d entries, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
