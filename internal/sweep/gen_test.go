package sweep

import (
	"bytes"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// genGrid crosses synthetic workloads with app- and platform-side axes so
// every caching layer sees generated traces: two gen specs (differing in
// pattern and seed), two chunk granularities, two mechanisms, two
// bandwidths.
func genGrid() Grid {
	return Grid{
		Apps: []string{
			"gen:ring,ranks=4,iters=2,msg=256,seed=1",
			"gen:masterworker,ranks=4,iters=2,msg=256,seed=2",
		},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, 256 * units.MBPerSec},
		Chunks:     []int{4, 8},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.BothMechanisms},
	}
}

// TestGenSweepWorkerInvariant: a gen-workload sweep is deterministic and
// ordered regardless of parallelism — workers 1, 2 and 8 produce
// byte-identical CSV.
func TestGenSweepWorkerInvariant(t *testing.T) {
	g := genGrid()
	var outs [][]byte
	for _, workers := range []int{1, 2, 8} {
		r := NewRunner(machine.Default())
		r.Engine = Engine{Workers: workers}
		results, err := r.Run(g)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, FormatCSV, results, false); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Errorf("worker count changed sweep output:\n%s\n---\n%s", outs[0], outs[i])
		}
	}
}

// TestGenOriginalTraceChunkInvariant extends the replay-memo soundness
// guard to generated workloads: the original trace of a gen app must be
// identical across profiling granularities, since the chunk axis shares
// one original replay.
func TestGenOriginalTraceChunkInvariant(t *testing.T) {
	encode := func(chunks int) []byte {
		app, err := apps.New("gen:stencil2d,ranks=4,iters=2,msg=128,msgdist=uniform,seed=5", apps.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := tracer.Trace(app, tracer.Options{Chunks: chunks})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, ps.Original); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(4), encode(8)) {
		t.Fatal("gen original trace differs between chunk granularities; replay memo key is unsound")
	}
}

// TestGenWarmRerunZeroWork: generated workloads flow through the trace
// cache and replay store exactly like registered apps — a warm identical
// re-run performs zero instrumented runs and zero replays, with
// byte-identical results.
func TestGenWarmRerunZeroWork(t *testing.T) {
	dir := t.TempDir()
	g := genGrid()
	var warnings []string

	cold := warmRunner(t, dir, &warnings)
	cold.Size, cold.Iters = 0, 0 // gen specs carry their own scale
	coldResults, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	// Two specs x two chunk granularities, traced once each.
	if cs.Traces != 4 || cs.TraceCacheHits != 0 {
		t.Fatalf("cold run stats %+v: want 4 traces, 0 hits", cs)
	}

	warm := warmRunner(t, dir, &warnings)
	warm.Size, warm.Iters = 0, 0
	warmResults, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Traces != 0 || ws.Replays != 0 {
		t.Errorf("warm run stats %+v: want 0 instrumented runs and 0 replays", ws)
	}
	if ws.ReplayStoreHits != cs.Replays {
		t.Errorf("warm run answered %d replays from the store, want all %d", ws.ReplayStoreHits, cs.Replays)
	}

	var coldOut, warmOut bytes.Buffer
	if err := Write(&coldOut, FormatCSV, coldResults, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&warmOut, FormatCSV, warmResults, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Errorf("warm gen results differ from cold run:\n%s\n---\n%s", coldOut.String(), warmOut.String())
	}
	if len(warnings) != 0 {
		t.Errorf("clean warm run warned: %v", warnings)
	}
}

// TestGenTraceCacheKeyGolden pins the on-disk cache key for a generated
// workload. The canonical spec string reaches the key through sanitizeKey,
// so this pin guards both the spec canonical form and the sanitizer:
// changing either silently would orphan existing cache entries.
func TestGenTraceCacheKeyGolden(t *testing.T) {
	c := &TraceCache{Dir: t.TempDir()}
	app := "gen:ring,ranks=4,iters=2,msg=256,msgdist=fixed,comp=20000,compdist=fixed,imb=1,jit=0,deg=3,seed=1"
	want := "t1-gen_ring_ranks_4_iters_2_msg_256_msgdist_fixed_comp_20000_compdist_fixed_imb_1_jit_0_deg_3_seed_1-r0-c8-s0-i0"
	if got := c.Key(app, 0, 8, 0, 0); got != want {
		t.Errorf("Key(%q) = %q, want %q", app, got, want)
	}
	// Keys of specs differing only in seed must stay distinct after
	// sanitizing — the sanitizer is injective on canonical spec strings.
	other := c.Key(app[:len(app)-1]+"2", 0, 8, 0, 0)
	if other == c.Key(app, 0, 8, 0, 0) {
		t.Error("seed change did not change the cache key")
	}
}

// TestGenSignatureGolden pins the shard signature of a gen grid. Gen specs
// join the signature through the app axis, so mid-campaign shard sets over
// generated workloads survive upgrades exactly like registered apps —
// and any change to a spec (here: the seed) must change the signature.
func TestGenSignatureGolden(t *testing.T) {
	base := machine.Default()
	g := Grid{Apps: []string{"gen:ring,ranks=4,iters=2,msg=256,seed=1"}, Chunks: []int{4, 8}}
	const want = "f5031fbb373e1355"
	if got := Signature(g, base, 0, 0); got != want {
		t.Errorf("gen grid signature = %s, want pinned %s", got, want)
	}
	h := g
	h.Apps = []string{"gen:ring,ranks=4,iters=2,msg=256,seed=2"}
	if got := Signature(h, base, 0, 0); got == want {
		t.Error("seed change did not change the shard signature; merge could mix incompatible shards")
	}
}
