package replay

import (
	"reflect"
	"sync"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracegen"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// gen64 generates the benchmark workload once per process: a 64-rank 2D
// stencil (gen:stencil2d,ranks=64) with enough iterations and compute per
// iteration that the replay carries real event volume per rank. The
// generator closes each iteration with an Allreduce; those records are
// stripped so the set is the pure halo exchange — the parallel engine
// refuses collective traces by design, and the benchmark pair must time
// the same workload on both engines.
var gen64 = sync.OnceValues(func() (*trace.Set, error) {
	spec, err := tracegen.ParseSpec("gen:stencil2d,ranks=64,iters=12,msg=8192,comp=40000,seed=7")
	if err != nil {
		return nil, err
	}
	ps, err := tracegen.Generate(spec, tracer.Options{})
	if err != nil {
		return nil, err
	}
	ts := ps.Original
	for r := range ts.Traces {
		recs := ts.Traces[r].Records[:0]
		for _, rec := range ts.Traces[r].Records {
			if rec.Kind != trace.KindCollective {
				recs = append(recs, rec)
			}
		}
		ts.Traces[r].Records = recs
	}
	return ts, nil
})

// gen64Config is the contention-free platform the parallel engine targets,
// with a latency fat enough that each conservative window carries many
// events per shard (lookahead = latency on this platform).
func gen64Config() machine.Config {
	c := testConfig()
	c.Latency = 50 * units.Microsecond
	return c
}

// TestGen64ParallelIdentity anchors the benchmark pair below: the workload
// they time really does engage the parallel engine, and its result is
// identical to the sequential one.
func TestGen64ParallelIdentity(t *testing.T) {
	ts, err := gen64()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(ts, gen64Config())
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulatePar(ts, gen64Config(), 4)
	if err != nil {
		t.Fatal(err)
	}
	normalizeWindows(t, got, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("gen64 parallel result diverges from sequential")
	}
}

// benchmarkGen64 times the warm summary path — the replay every sweep
// memo fill runs — so the pair compares the two replay engines, not
// per-run Result assembly.
func benchmarkGen64(b *testing.B, par int) {
	ts, err := gen64()
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []machine.Config{gen64Config()}
	out := make([]Summary, 1)
	r := newReplayer()
	r.parallel = par
	if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
		b.Fatal(err)
	}
	if par > 0 && out[0].Windows == 0 {
		b.Fatal("parallel engine did not engage")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayGen64Seq and ...Par4 are the PR's headline pair: the same
// 64-rank stencil replay, sequential versus four conservative-window
// shards.
func BenchmarkReplayGen64Seq(b *testing.B)  { benchmarkGen64(b, 0) }
func BenchmarkReplayGen64Par4(b *testing.B) { benchmarkGen64(b, 4) }
