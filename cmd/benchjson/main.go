// Command benchjson converts `go test -bench` output read from stdin into
// a machine-readable JSON record — the format CI archives as BENCH.json
// so the repository accumulates a performance trajectory instead of
// benchmark numbers scrolling away in build logs — and compares two such
// records so CI can gate on regressions.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -baseline docs/bench-baseline.json -o BENCH.json
//	benchjson compare old.json new.json -threshold 10%
//	benchjson ab ref.txt new.txt
//
// Lines that are not benchmark results (package headers, PASS/ok trailers)
// are ignored; repeated results of one benchmark (-count N) fold into
// their medians (Fold), so one host stall does not decide the record. The
// optional -baseline file embeds reference numbers from an earlier PR so
// one artifact carries both before and after.
//
// compare diffs the benchmarks the two records share (old first) and exits
// nonzero when any regresses beyond the thresholds: -threshold bounds the
// ns/op growth and -allocs-threshold the allocs/op growth (both accept
// "10%" or a plain percent number; allocations additionally get a flat
// +2 allocs/op of slack, so pool-warmup jitter on tiny counts does not
// trip the gate). ns/op only gates order-of-magnitude noise when the
// records come from machines of different speeds — allocs/op is the
// machine-independent signal, which is why it has its own, tighter knob.
// Flags may come before or after the file arguments. Records in either the
// report or the baseline shape are accepted.
//
// ab reads two sides' raw `go test -bench` outputs, each holding several
// rounds of the same benchmarks from one host, and prints per-benchmark
// medians, the ref's spread and the rounds the change won (see
// scripts/bench-ab.sh, `make bench-ab`). It gates nothing.
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the GOMAXPROCS suffix stripped, so
	// records compare across machines.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the benchmark ran without
	// -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Runs counts the result lines Fold merged into this entry; 0 means
	// one. With several, NsPerOp, BytesPerOp and AllocsPerOp are their
	// medians and MinNsPerOp and MaxNsPerOp bound their ns/op.
	Runs       int     `json:"runs,omitempty"`
	MinNsPerOp float64 `json:"min_ns_per_op,omitempty"`
	MaxNsPerOp float64 `json:"max_ns_per_op,omitempty"`
}

// Baseline is the committed reference record (-baseline flag).
type Baseline struct {
	Label      string      `json:"label"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Report is the emitted artifact.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
	Baseline   *Baseline   `json:"baseline,omitempty"`
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "compare" || os.Args[1] == "ab") {
		sub := runCompare
		if os.Args[1] == "ab" {
			sub = runAB
		}
		if err := sub(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	baselinePath := flag.String("baseline", "", "embed this baseline JSON file in the report")
	flag.Parse()
	if err := run(os.Stdin, *out, *baselinePath); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, outPath, baselinePath string) error {
	benches, err := Parse(in)
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("no benchmark result lines on stdin")
	}
	report := Report{Benchmarks: Fold(benches)}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		var base Baseline
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
		report.Baseline = &base
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(outPath, enc, 0o644)
}

// Parse extracts benchmark result lines from `go test -bench` output.
func Parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

// Fold merges the results that share a name into one entry, in order of
// first appearance: the medians of ns/op, B/op and allocs/op, each taken
// separately, and the ns/op range. Iterations is the first result's. A
// name seen once passes unchanged.
func Fold(benches []Benchmark) []Benchmark {
	var out []Benchmark
	runs := map[string][]Benchmark{}
	for _, b := range benches {
		if runs[b.Name] == nil {
			out = append(out, b)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	for i := range out {
		rs := runs[out[i].Name]
		if len(rs) == 1 {
			continue
		}
		var ns []float64
		var bytes, allocs []int64
		for _, r := range rs {
			ns, bytes, allocs = append(ns, r.NsPerOp), append(bytes, r.BytesPerOp), append(allocs, r.AllocsPerOp)
		}
		out[i].NsPerOp, out[i].BytesPerOp, out[i].AllocsPerOp = median(ns), median(bytes), median(allocs)
		out[i].Runs, out[i].MinNsPerOp, out[i].MaxNsPerOp = len(rs), ns[0], ns[len(ns)-1]
	}
	return out
}

// median sorts vs and returns its middle element, the lower one for an
// even count.
func median[T cmp.Ordered](vs []T) T {
	slices.Sort(vs)
	return vs[(len(vs)-1)/2]
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   1234   5678 ns/op   90 B/op   1 allocs/op
//
// reporting ok=false for Benchmark-prefixed lines that are not results
// (e.g. a benchmark's own log output).
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return Benchmark{}, false, nil
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true, nil
}
