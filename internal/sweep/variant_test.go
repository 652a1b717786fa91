package sweep

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/core"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// countBuilds swaps the memo fills' variant build for one that counts its
// calls, until the test ends.
func countBuilds(t *testing.T) *atomic.Int64 {
	orig := buildVariant
	t.Cleanup(func() { buildVariant = orig })
	var n atomic.Int64
	buildVariant = func(s *core.Study, opts overlap.Options) (*trace.Set, error) {
		n.Add(1)
		return orig(s, opts)
	}
	return &n
}

// TestWarmStoreBuildsNoVariant: a fresh Runner over a trace cache and a
// replay store that an earlier Runner filled answers every replay from
// the store and builds no variant, and renders what the cold run did.
func TestWarmStoreBuildsNoVariant(t *testing.T) {
	dir := t.TempDir()
	g := releaseGrid()
	runner := func() *Runner {
		r := releaseRunner(2)
		r.Cache = &TraceCache{Dir: dir}
		r.Store = &replaystore.Store{Dir: dir}
		return r
	}
	cold := runner()
	want, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	cw := cold.Stats()
	if cw.Replays == 0 {
		t.Fatal("the cold run replayed nothing")
	}

	builds := countBuilds(t)
	warm := runner()
	got, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("the warm run built %d variants, want 0", n)
	}
	ww := warm.Stats()
	if ww.Traces != 0 || ww.Replays != 0 || ww.TraceCacheHits != cw.Traces ||
		ww.ReplayStoreHits != cw.Replays || ww.ReplayMemoHits != cw.ReplayMemoHits {
		t.Errorf("warm work = %+v, want 0 traces, 0 replays, %d trace-cache hits, %d store hits and %d memo hits",
			ww, cw.Traces, cw.Replays, cw.ReplayMemoHits)
	}
	if !bytes.Equal(csvOf(t, got, false), csvOf(t, want, false)) {
		t.Error("the warm run renders differently from the cold one")
	}
}

// TestPropertyMemoKeyNamesTransformOutput: for every option set —
// mechanisms, pattern and chunk override — of tracer and tracegen
// originals profiled at two granularities, the replay key Replay computes
// without a variant names the variant and rank count overlap.Transform
// writes, and the key of the original names the original.
func TestPropertyMemoKeyNamesTransformOutput(t *testing.T) {
	r := NewRunner(machine.Default())
	r.Store = &replaystore.Store{Dir: t.TempDir()}
	m := machine.Default()
	workloads := []struct {
		app string
		cfg apps.Config
	}{
		{"pingpong", apps.Config{Size: 256, Iterations: 1}},
		{"ring", apps.Config{Size: 256, Iterations: 1}},
		{"cg", apps.Config{Size: 1024, Iterations: 1}},
		{"sweep3d", apps.Config{Ranks: 4, Size: 256, Iterations: 1}},
		{"gen:ring,ranks=6,iters=2,msg=256,seed=1", apps.Config{}},
		{"gen:stencil2d,ranks=9,iters=2,msg=512,seed=2", apps.Config{}},
		{"gen:alltoall,ranks=4,iters=1,msg=64,seed=3", apps.Config{}},
		{"gen:masterworker,ranks=5,iters=2,msg=128,seed=4", apps.Config{}},
		{"gen:randomsparse,ranks=16,iters=2,msg=100,seed=5", apps.Config{}},
	}
	for _, wl := range workloads {
		for _, chunks := range []int{4, 8} {
			w, err := r.Workload(wl.app, wl.cfg, chunks)
			if err != nil {
				t.Fatalf("%s c%d: %v", wl.app, chunks, err)
			}
			ps := w.Study.Profiled
			if key, _ := w.replayKey(nil, m); key.variant != ps.Original.Variant || key.ranks != ps.Original.NRanks() || key.chunks != 0 {
				t.Errorf("%s c%d: original key %+v, want variant %q, %d ranks, chunks 0",
					wl.app, chunks, key, ps.Original.Variant, ps.Original.NRanks())
			}
			for mech := overlap.Mechanism(0); mech <= overlap.EarlySend|overlap.LateRecv|overlap.PrepostRecv; mech++ {
				for _, pat := range []overlap.Pattern{overlap.PatternReal, overlap.PatternLinear} {
					for _, override := range []int{0, 1, 3, chunks, 16, overlap.MaxChunks} {
						opts := overlap.Options{Mechanisms: mech, Pattern: pat, Chunks: override}
						out, err := overlap.Transform(ps, opts)
						if err != nil {
							t.Fatalf("%s c%d %+v: %v", wl.app, chunks, opts, err)
						}
						key, store := w.replayKey(&opts, m)
						if key.variant != out.Variant || key.ranks != out.NRanks() || key.chunks != ps.Chunks {
							t.Errorf("%s c%d: key %q r%d c%d, but Transform wrote %q r%d from a c%d trace",
								wl.app, chunks, key.variant, key.ranks, key.chunks, out.Variant, out.NRanks(), ps.Chunks)
						}
						if storable := override == 0 || override == ps.Chunks; (store != nil) != storable {
							t.Errorf("%s c%d override %d: store %v", wl.app, chunks, override, store)
						}
					}
				}
			}
		}
	}
}

// TestTransformErrorSurfacesOnMiss: a variant that cannot be built fails
// its replay with overlap.Transform's own error text, on the miss and on
// a later call for the same key, and counts no replay and no memo hit.
func TestTransformErrorSurfacesOnMiss(t *testing.T) {
	r := NewRunner(machine.Default())
	m := machine.Default().WithBandwidth(64 * units.MBPerSec)
	w, err := r.Workload("pingpong", apps.Config{Size: 256, Iterations: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	nb := trace.NewSet("nb", "original", 2, 1000)
	nb.Traces[0].Append(trace.ISend(1, 5, 64, 1), trace.Wait(1))
	nb.Traces[1].Append(trace.Recv(0, 5, 64))
	nonBlocking := &Workload{
		Study: &core.Study{Profiled: &overlap.ProfiledSet{Original: nb, Annotations: []map[int]overlap.Annotation{{}, {}}, Chunks: 8}},
		r:     r,
		key:   pipeKey{app: "nb"},
	}
	for _, tc := range []struct {
		name string
		w    *Workload
		opts overlap.Options
	}{
		{"chunks out of range", w, overlap.Options{Mechanisms: overlap.BothMechanisms, Chunks: overlap.MaxChunks + 1}},
		{"non-blocking original", nonBlocking, overlap.Options{Mechanisms: overlap.EarlySend}},
	} {
		_, want := overlap.Transform(tc.w.Study.Profiled, tc.opts)
		if want == nil {
			t.Fatalf("%s: Transform accepted the options", tc.name)
		}
		before := r.Stats()
		for call := range 2 {
			_, err := tc.w.Replay(&tc.opts, m)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: call %d: err = %v, want %q", tc.name, call, err, want)
			}
		}
		if d := r.Stats().Sub(before); d.Replays != 0 || d.ReplayMemoHits != 0 {
			t.Errorf("%s: counted %d replays and %d memo hits of a variant that was never built", tc.name, d.Replays, d.ReplayMemoHits)
		}
	}
}

// TestTransformPanicAsksStudyAgain: a variant build that panics is not
// kept as a replay: the next call for the key asks the study again and
// gets its answer, counting no memo hit.
func TestTransformPanicAsksStudyAgain(t *testing.T) {
	orig := buildVariant
	t.Cleanup(func() { buildVariant = orig })
	calls := 0
	buildVariant = func(*core.Study, overlap.Options) (*trace.Set, error) {
		if calls++; calls == 1 {
			panic("boom")
		}
		return nil, errors.New("transform panicked: boom")
	}
	r := NewRunner(machine.Default())
	w, err := r.Workload("pingpong", apps.Config{Size: 256, Iterations: 1}, 8)
	if err != nil {
		t.Fatal(err)
	}
	opts := overlap.Options{Mechanisms: overlap.EarlySend}
	m := machine.Default()
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("first call recovered %v, want the build's panic", p)
			}
		}()
		w.Replay(&opts, m)
	}()
	before := r.Stats()
	if _, err := w.Replay(&opts, m); err == nil || err.Error() != "transform panicked: boom" {
		t.Errorf("second call: err = %v, want the study's", err)
	}
	if calls != 2 {
		t.Errorf("the build ran %d times, want 2", calls)
	}
	if d := r.Stats().Sub(before); d.Replays != 0 || d.ReplayMemoHits != 0 {
		t.Errorf("second call counted %d replays and %d memo hits", d.Replays, d.ReplayMemoHits)
	}
}
