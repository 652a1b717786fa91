package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// scaleoutGrid is a small grid that still exercises every axis the caching
// layers care about: two chunk granularities and two mechanism sets.
func scaleoutGrid() Grid {
	return Grid{
		Apps:       []string{"pingpong"},
		Bandwidths: []units.Bandwidth{64 * units.MBPerSec, 256 * units.MBPerSec},
		Chunks:     []int{4, 8},
		Mechanisms: []overlap.Mechanism{overlap.EarlySend, overlap.BothMechanisms},
	}
}

func newScaleoutRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(machine.Default())
	r.Size = 512
	r.Iters = 2
	return r
}

// TestShardMergeByteIdentical is the sharding contract: for 1-, 2- and
// 4-way splits, round-tripping every shard through the envelope and
// merging yields output byte-identical to the unsharded run, in every
// format.
func TestShardMergeByteIdentical(t *testing.T) {
	g := scaleoutGrid()
	full, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	sig := Signature(g, machine.Default(), 512, 2)
	total := g.Size()

	for _, n := range []int{1, 2, 4} {
		var shards []*ShardFile
		for k := 1; k <= n; k++ {
			sh := Shard{K: k, N: n}
			indices := sh.Indices(total)
			// Each shard runs in its own runner, as it would in its own
			// process or CI job.
			results, err := runIndices(newScaleoutRunner(t), g, indices)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteShard(&buf, sig, total, sh, indices, results); err != nil {
				t.Fatal(err)
			}
			sf, err := ReadShard(&buf)
			if err != nil {
				t.Fatal(err)
			}
			shards = append(shards, sf)
		}
		merged, err := Merge(shards)
		if err != nil {
			t.Fatalf("%d-way merge: %v", n, err)
		}
		for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
			var want, got bytes.Buffer
			if err := Write(&want, f, full, false); err != nil {
				t.Fatal(err)
			}
			if err := Write(&got, f, merged, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%d-way sharded %s output differs from unsharded:\n%s\n---\n%s",
					n, f, want.String(), got.String())
			}
		}
	}
}

// TestTraceCacheKeysGolden pins the cache key scheme: keys are shared
// between processes and across releases, so changing them silently would
// orphan every existing cache directory.
func TestTraceCacheKeysGolden(t *testing.T) {
	c := &TraceCache{Dir: t.TempDir()}
	golden := []struct {
		app                        string
		ranks, chunks, size, iters int
		want                       string
	}{
		{"pingpong", 0, 8, 0, 0, "t1-pingpong-r0-c8-s0-i0"},
		{"bt", 4, 8, 10, 2, "t1-bt-r4-c8-s10-i2"},
		{"sweep3d", 16, 32, 256, 1, "t1-sweep3d-r16-c32-s256-i1"},
		{"we/ird app", 2, 4, 8, 1, "t1-we_ird_app-r2-c4-s8-i1"},
	}
	for _, g := range golden {
		if got := c.Key(g.app, g.ranks, g.chunks, g.size, g.iters); got != g.want {
			t.Errorf("Key(%q, %d, %d, %d, %d) = %q, want %q",
				g.app, g.ranks, g.chunks, g.size, g.iters, got, g.want)
		}
	}
}

// TestTraceCacheWarm is the acceptance criterion for the persistent cache:
// a second identical sweep with a warm cache performs zero instrumented
// runs, and its results are byte-identical to the cold run's.
func TestTraceCacheWarm(t *testing.T) {
	dir := t.TempDir()
	g := scaleoutGrid()

	cold := newScaleoutRunner(t)
	cold.Cache = &TraceCache{Dir: dir}
	coldResults, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Traces != 2 || s.TraceCacheHits != 0 {
		// Two distinct (app, ranks, chunks) workloads: chunks 4 and 8.
		t.Fatalf("cold run: %+v, want 2 traces, 0 hits", s)
	}

	warm := newScaleoutRunner(t)
	warm.Cache = &TraceCache{Dir: dir}
	warmResults, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Traces != 0 || s.TraceCacheHits != 2 {
		t.Fatalf("warm run: %+v, want 0 traces, 2 hits", s)
	}

	var coldOut, warmOut bytes.Buffer
	if err := Write(&coldOut, FormatCSV, coldResults, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&warmOut, FormatCSV, warmResults, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Errorf("warm-cache results differ from cold run:\n%s\n---\n%s",
			coldOut.String(), warmOut.String())
	}
}

// TestTraceCacheStoreBestEffort: an unwritable cache directory must not
// fail the sweep — the trace just succeeded and the results are complete —
// but the failure is surfaced through CacheStoreErr for a warning.
func TestTraceCacheStoreBestEffort(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	r := newScaleoutRunner(t)
	// The cache dir's parent is a regular file, so MkdirAll fails with
	// ENOTDIR regardless of privileges.
	r.Cache = &TraceCache{Dir: filepath.Join(blocker, "cache")}
	results, err := r.Run(Grid{Apps: []string{"pingpong"}})
	if err != nil {
		t.Fatalf("sweep failed on a cache-write error: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	if r.CacheStoreErr() == nil {
		t.Error("CacheStoreErr = nil, want the failed store surfaced")
	}
	if s := r.Stats(); s.Traces != 1 {
		t.Errorf("Traces = %d, want 1", s.Traces)
	}
}

// TestReplayMemoCutsReplays is the acceptance criterion for the replay
// memo: mechanism and chunk axes share the original replay (and chunk-
// independent variants), so a grid performs measurably fewer replays than
// the naive two per point.
func TestReplayMemoCutsReplays(t *testing.T) {
	r := newScaleoutRunner(t)
	g := scaleoutGrid()
	if _, err := r.Run(g); err != nil {
		t.Fatal(err)
	}
	points := g.Size() // 8: 2 bandwidths x 2 chunks x 2 mechanisms
	naive := int64(2 * points)
	s := r.Stats()
	// Per bandwidth: 1 original replay (shared by all 4 points) + 4
	// distinct overlapped variants (2 chunks x 2 mechanisms) = 5.
	want := int64(10)
	if s.Replays != want {
		t.Errorf("Replays = %d, want %d (naive would be %d)", s.Replays, want, naive)
	}
	if s.ReplayMemoHits != naive-want {
		t.Errorf("ReplayMemoHits = %d, want %d", s.ReplayMemoHits, naive-want)
	}
	if s.Replays >= naive {
		t.Errorf("memo saved nothing: %d replays for %d points", s.Replays, points)
	}
}

// TestOriginalTraceChunkInvariant guards the replay memo's key: the
// original trace must be identical across profiling granularities, or
// sharing the original replay across the chunk axis would be unsound.
func TestOriginalTraceChunkInvariant(t *testing.T) {
	encode := func(chunks int) []byte {
		app, err := apps.New("pingpong", apps.Config{Size: 512, Iterations: 2})
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
		t.Fatal("original trace differs between chunk granularities; replay memo key is unsound")
	}
}

// TestEngineProgress checks the -progress contract: one serialized call
// per completed job with a strictly increasing counter, for both the
// serial and the parallel path.
func TestEngineProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls []int
		e := Engine{Workers: workers, Progress: func(done, total int) {
			if total != 9 {
				t.Errorf("total = %d, want 9", total)
			}
			calls = append(calls, done)
		}}
		if _, err := Map(e, 9, func(i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if len(calls) != 9 {
			t.Fatalf("workers=%d: %d progress calls, want 9", workers, len(calls))
		}
		for i, d := range calls {
			if d != i+1 {
				t.Fatalf("workers=%d: progress calls not increasing: %v", workers, calls)
			}
		}
	}
}
