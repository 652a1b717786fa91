package sweep

import (
	"fmt"
	"runtime"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/units"
)

// benchSweep times b.N sweeps of g, each on a fresh runner from newRunner
// over a trace cache primed in a temporary directory. A fresh runner starts
// with an empty replay memo, so the timed loop pays every replay — not memo
// hits — while the instrumented runs stay outside the timer. An iteration
// that replays nothing fails the benchmark: it would be timing the memo.
func benchSweep(b *testing.B, g Grid, newRunner func() *Runner) {
	cache := &TraceCache{Dir: b.TempDir()}
	prime := newRunner()
	prime.Cache = cache
	if _, err := prime.Run(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRunner()
		r.Cache = cache
		if _, err := r.Run(g); err != nil {
			b.Fatal(err)
		}
		if r.Stats().Replays == 0 {
			b.Fatal("sweep iteration did no replays")
		}
	}
}

// BenchmarkSweep measures a representative bandwidth × chunk × mechanism
// sweep at several worker counts: the fanned-out replay work, the stage
// the worker pool parallelizes.
func BenchmarkSweep(b *testing.B) {
	g := Grid{
		Apps: []string{"pingpong"},
		Bandwidths: []units.Bandwidth{16 * units.MBPerSec, 64 * units.MBPerSec,
			256 * units.MBPerSec, units.GBPerSec, 4 * units.GBPerSec, 16 * units.GBPerSec},
		Chunks:     []int{4, 8, 16},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.LateRecv, overlap.BothMechanisms},
	}
	// On a multi-core machine the second run shows the pool's speedup; on
	// a single core it degenerates to the serial cost plus noise.
	workerCounts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchSweep(b, g, func() *Runner {
				r := NewRunner(machine.Default())
				r.Size = 512
				r.Iters = 2
				r.Engine = Engine{Workers: workers}
				return r
			})
		})
	}
}

// benchDense runs the acceptance-criterion 512-point dense grid with the
// surrogate fast path on or off. The pair isolates what the surrogate
// actually saves — replay work — and the recorded ratio between them is
// the fast path's headline speedup on its target workload shape.
func benchDense(b *testing.B, approx bool) {
	benchSweep(b, denseGrid(), func() *Runner { return denseRunner(approx) })
}

// BenchmarkSweepDenseExact is the exact-mode half of the surrogate pair:
// every one of the 512 grid points is replayed.
func BenchmarkSweepDenseExact(b *testing.B) { benchDense(b, false) }

// BenchmarkSweepDenseApprox is the fast-path half: anchors plus refinement
// plus spot checks replay, interpolation fills the rest (~21% of the exact
// replay count at the default 2% error bound).
func BenchmarkSweepDenseApprox(b *testing.B) { benchDense(b, true) }

// BenchmarkSweepWarmStore times the Runner's share of a warm serve
// request: a fresh Runner over a primed trace cache and replay store runs
// a serve-mixed-shaped grid (one 16-rank gen workload, 4 bandwidths,
// chunks 4 and 8, 2 mechanisms), so every replay is a store hit. An
// iteration that replays fails the benchmark: it would be timing the cold
// path.
func BenchmarkSweepWarmStore(b *testing.B) {
	g := Grid{
		Apps:       []string{"gen:ring,ranks=16,iters=6,jit=0.1,seed=1"},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, 256 * units.MBPerSec, units.GBPerSec, 4 * units.GBPerSec},
		Chunks:     []int{4, 8},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.BothMechanisms},
	}
	dir := b.TempDir()
	newRunner := func() *Runner {
		r := NewRunner(machine.Default())
		r.Engine = Engine{Workers: 2}
		r.Cache = &TraceCache{Dir: dir}
		r.Store = &replaystore.Store{Dir: dir}
		return r
	}
	if _, err := newRunner().Run(g); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRunner()
		if _, err := r.Run(g); err != nil {
			b.Fatal(err)
		}
		if n := r.Stats().Replays; n != 0 {
			b.Fatalf("warm sweep iteration replayed %d times", n)
		}
	}
}
