package replay

import (
	"bytes"
	"reflect"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
)

// FuzzReplay drives the simulator with arbitrary decoded-and-validated trace
// sets: Simulate must terminate without panicking and produce the same result
// twice. Sets that fail Validate are out of contract and skipped, as are
// very large ones (the fuzzer makes no progress exploring size, only shape).
func FuzzReplay(f *testing.F) {
	f.Add([]byte("H 2 1000 \"a\" \"o\"\nT 0\nC 10\nS 1 0 64\nG barrier 0 0\nT 1\nC 20\nR 0 0 64\nG barrier 0 0\n"))
	// Collective-free pairwise exchange: engages the parallel leg below.
	f.Add([]byte("H 4 1000 \"par\" \"o\"\nT 0\nC 100\nS 1 0 64\nR 1 1 64\nT 1\nC 120\nR 0 0 64\nS 0 1 64\nT 2\nC 90\nS 3 2 64\nR 3 3 64\nT 3\nC 80\nR 2 2 64\nS 2 3 64\n"))
	// Collective-free ring of non-blocking exchanges whose request ids are
	// sparse, negative and past 2^32; the parallel leg replays the
	// request slots too.
	f.Add([]byte("H 4 1000 \"ring\" \"o\"\n" +
		"T 0\nIR 3 0 4096 -3\nIS 1 0 4096 8589934597\nC 50\nW 8589934597\nW -3\n" +
		"T 1\nIR 0 0 4096 17\nIS 2 0 4096 0\nC 60\nW 17\nW 0\n" +
		"T 2\nIS 3 0 64 -9223372036854775808\nIR 1 0 4096 2147483648\nC 70\nW 2147483648\nW -9223372036854775808\n" +
		"T 3\nIR 2 0 64 5\nIS 0 0 4096 1000000\nC 40\nW 5\nW 1000000\n"))
	// Requests waited out of posting order, one never waited, around a
	// collective.
	f.Add([]byte("H 2 1000 \"reqs\" \"o\"\n" +
		"T 0\nIS 1 1 64 -1\nIS 1 2 100000 4294967296\nIR 1 3 64 42\nW 4294967296\nW -1\nG barrier 0 0\n" +
		"T 1\nR 0 1 64\nIR 0 2 100000 7\nS 0 3 64\nW 7\nG barrier 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := trace.Validate(ts); err != nil {
			return
		}
		if ts.NRanks() > 32 {
			return
		}
		records := 0
		for i := range ts.Traces {
			records += len(ts.Traces[i].Records)
		}
		if records > 4096 {
			return
		}
		// Rendezvous everywhere: the strictest protocol, and the one where
		// mismatched orderings would deadlock if the engine mishandled them.
		cfg := machine.Default()
		cfg.EagerThreshold = 0
		res, err := Simulate(ts, cfg)
		if err != nil {
			return // diagnosed rejection (e.g. deadlock) is fine; a hang is not
		}
		res2, err2 := Simulate(ts, cfg)
		if err2 != nil {
			t.Fatalf("second Simulate failed after first succeeded: %v", err2)
		}
		if res.Total != res2.Total || res.Steps != res2.Steps {
			t.Fatalf("replay nondeterministic: total %v/%v steps %d/%d",
				res.Total, res2.Total, res.Steps, res2.Steps)
		}
		// The parallel engine must agree with sequential on any workload the
		// fuzzer produces. Contention-free platform (its eligibility domain),
		// threshold lowered so small fuzz inputs engage; traces it refuses
		// (collectives) exercise the fallback, which must also agree.
		pcfg := cfg
		pcfg.Buses, pcfg.InLinks, pcfg.OutLinks = 0, 0, 0
		seq, err := Simulate(ts, pcfg)
		pr := newReplayer()
		pr.parallel = 4
		pr.parThreshold = 2
		par, perr := pr.Simulate(ts, pcfg)
		if (err == nil) != (perr == nil) {
			t.Fatalf("parallel/sequential disagree on failure: seq=%v par=%v", err, perr)
		}
		if err == nil {
			par.Windows = 0
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("parallel result diverges: total %v/%v steps %d/%d",
					par.Total, seq.Total, par.Steps, seq.Steps)
			}
		}
	})
}
