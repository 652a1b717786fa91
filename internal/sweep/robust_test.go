package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/sweep/replaystore"
)

// warmRunner builds a runner wired to a shared cache directory with both
// work-avoidance layers and a warning collector.
func warmRunner(t *testing.T, dir string, warnings *[]string) *Runner {
	t.Helper()
	var mu sync.Mutex
	warn := func(msg string) {
		mu.Lock()
		defer mu.Unlock()
		*warnings = append(*warnings, msg)
	}
	r := newScaleoutRunner(t)
	r.Cache = &TraceCache{Dir: dir, Warn: warn}
	r.Store = &replaystore.Store{Dir: dir, Warn: warn}
	return r
}

// TestReplayStoreWarmRunDoesZeroWork is the replay-store acceptance
// criterion: a warm re-run of an identical sweep — a platform grid, where
// every point past the single instrumented run is a replay — performs zero
// instrumented runs AND zero replays, and its output is byte-identical to
// the cold run's.
func TestReplayStoreWarmRunDoesZeroWork(t *testing.T) {
	dir := t.TempDir()
	g := sinkGrid() // platform axis on top of the app-side axes
	var warnings []string

	cold := warmRunner(t, dir, &warnings)
	coldResults, err := cold.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if cs.Traces == 0 || cs.Replays == 0 || cs.ReplayStoreHits != 0 {
		t.Fatalf("cold run stats %+v: want traces and replays, no store hits", cs)
	}

	warm := warmRunner(t, dir, &warnings)
	warmResults, err := warm.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Traces != 0 || ws.Replays != 0 {
		t.Errorf("warm run stats %+v: want 0 instrumented runs and 0 replays", ws)
	}
	if ws.ReplayStoreHits != cs.Replays {
		t.Errorf("warm run answered %d replays from the store, want all %d the cold run simulated",
			ws.ReplayStoreHits, cs.Replays)
	}
	if ws.TraceCacheHits != cs.Traces {
		t.Errorf("warm run had %d trace-cache hits, want %d", ws.TraceCacheHits, cs.Traces)
	}

	var coldOut, warmOut bytes.Buffer
	if err := Write(&coldOut, FormatCSV, coldResults, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&warmOut, FormatCSV, warmResults, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldOut.Bytes(), warmOut.Bytes()) {
		t.Errorf("store-warm results differ from cold run:\n%s\n---\n%s", coldOut.String(), warmOut.String())
	}
	if len(warnings) != 0 {
		t.Errorf("clean warm run warned: %v", warnings)
	}
}

// TestReplayStoreServesSiblingShards: shards of one platform grid run in
// separate runners (as in separate processes); with a shared cache
// directory the second shard replays nothing that the first already paid
// for on the overlapping memo keys, and the merged output is untouched.
func TestReplayStoreServesSiblingShards(t *testing.T) {
	dir := t.TempDir()
	g := sinkGrid()
	total := g.Size()
	var warnings []string

	full, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}

	var shards []*ShardFile
	sig := Signature(g, machine.Default(), 512, 2)
	for k := 1; k <= 2; k++ {
		sh := Shard{K: k, N: 2}
		indices := sh.Indices(total)
		r := warmRunner(t, dir, &warnings)
		results, err := runIndices(r, g, indices)
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
		if k == 2 {
			if s := r.Stats(); s.Traces != 0 {
				t.Errorf("second shard re-traced %d workloads with a warm cache", s.Traces)
			}
		}
	}
	merged, err := Merge(shards)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := Write(&want, FormatCSV, full, false); err != nil {
		t.Fatal(err)
	}
	if err := Write(&got, FormatCSV, merged, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("store-backed sharded output differs from unsharded:\n%s\n---\n%s", want.String(), got.String())
	}
}

// corruptEntries truncates or garbles every cache file matching the glob.
func corruptEntries(t *testing.T, dir, glob string, content []byte) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := os.WriteFile(p, content, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestCacheCorruptionFallsBackToRecompute: truncated or corrupt .trace,
// .profile and .replay files must never fail the sweep — each damaged
// layer warns, recomputes (re-trace / re-replay) and rewrites the entry,
// and the results stay byte-identical to the undamaged run.
func TestCacheCorruptionFallsBackToRecompute(t *testing.T) {
	g := scaleoutGrid()
	reference, err := newScaleoutRunner(t).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := Write(&refCSV, FormatCSV, reference, false); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		glob    string
		content []byte
		// wants asserts the recompute actually happened.
		wants func(t *testing.T, s Counters)
	}{
		{"truncated trace", "*.trace", nil, func(t *testing.T, s Counters) {
			if s.Traces == 0 {
				t.Error("no re-trace after trace corruption")
			}
		}},
		{"garbage trace", "*.trace", []byte("MAGIC? no.\x00\x01"), func(t *testing.T, s Counters) {
			if s.Traces == 0 {
				t.Error("no re-trace after trace corruption")
			}
		}},
		{"truncated profile", "*.profile", nil, func(t *testing.T, s Counters) {
			if s.Traces == 0 {
				t.Error("no re-trace after profile corruption")
			}
		}},
		{"garbage profile", "*.profile", []byte("A 0 0 prod banana"), func(t *testing.T, s Counters) {
			if s.Traces == 0 {
				t.Error("no re-trace after profile corruption")
			}
		}},
		{"truncated replay store", "*.replay", nil, func(t *testing.T, s Counters) {
			if s.Replays == 0 {
				t.Error("no re-replay after store corruption")
			}
		}},
		{"garbage replay store", "*.replay", []byte("overlapsim-replay rs1\ntotal_ns=zap"), func(t *testing.T, s Counters) {
			if s.Replays == 0 {
				t.Error("no re-replay after store corruption")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var warnings []string
			if _, err := warmRunner(t, dir, &warnings).Run(g); err != nil {
				t.Fatal(err)
			}
			if n := corruptEntries(t, dir, tc.glob, tc.content); n == 0 {
				t.Fatalf("no %s files to corrupt", tc.glob)
			}
			warnings = warnings[:0]

			r := warmRunner(t, dir, &warnings)
			results, err := r.Run(g)
			if err != nil {
				t.Fatalf("sweep failed on corrupt cache entries: %v", err)
			}
			if len(warnings) == 0 {
				t.Error("corruption fell back silently, want a warning")
			}
			tc.wants(t, r.Stats())
			var got bytes.Buffer
			if err := Write(&got, FormatCSV, results, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refCSV.Bytes(), got.Bytes()) {
				t.Errorf("results differ after corruption fallback:\n%s\n---\n%s", refCSV.String(), got.String())
			}

			// The fallback rewrites the damaged entries: a third run is
			// clean and fully warm again.
			warnings = warnings[:0]
			healed := warmRunner(t, dir, &warnings)
			if _, err := healed.Run(g); err != nil {
				t.Fatal(err)
			}
			if s := healed.Stats(); s.Traces != 0 || s.Replays != 0 {
				t.Errorf("cache not healed by the fallback run: %+v", s)
			}
			if len(warnings) != 0 {
				t.Errorf("healed run still warned: %v", warnings)
			}
		})
	}
}

// TestTraceCacheConcurrentWriters: writers racing on one trace-cache key —
// cross-process in production, goroutines under the race detector here —
// never expose a torn entry: every load either misses or returns a
// complete profiled set.
func TestTraceCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	seed := warmRunner(t, dir, &[]string{})
	if _, err := seed.Run(Grid{Apps: []string{"pingpong"}}); err != nil {
		t.Fatal(err)
	}
	c := &TraceCache{Dir: dir, Warn: func(msg string) { t.Errorf("unexpected warning: %s", msg) }}
	key := c.Key("pingpong", 0, DefaultChunks, 512, 2)
	ps, err := c.Load(key)
	if err != nil || ps == nil {
		t.Fatalf("seed entry unusable: ps=%v err=%v", ps, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(writer bool) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if writer {
					if err := c.Store(key, ps); err != nil {
						t.Error(err)
						return
					}
				} else {
					got, err := c.Load(key)
					if err != nil {
						t.Error(err)
						return
					}
					if got != nil && got.Original.NRanks() != ps.Original.NRanks() {
						t.Error("torn trace-cache read")
						return
					}
				}
			}
		}(g%2 == 0)
	}
	wg.Wait()
}

// TestMergeReportsEveryMismatchedField: the operator untangling a mixed
// campaign sees every disagreeing shard and, per shard, every disagreeing
// envelope field in one error — not one mismatch per merge attempt.
func TestMergeReportsEveryMismatchedField(t *testing.T) {
	base := &ShardFile{Version: ShardFileVersion, Signature: "aaaa", Total: 8, Shard: "1/3"}
	sigOnly := &ShardFile{Version: ShardFileVersion, Signature: "bbbb", Total: 8, Shard: "2/3"}
	both := &ShardFile{Version: ShardFileVersion, Signature: "cccc", Total: 9, Shard: "3/3"}
	_, err := Merge([]*ShardFile{base, sigOnly, both})
	if err == nil {
		t.Fatal("mixed-campaign merge succeeded")
	}
	msg := err.Error()
	for _, frag := range []string{
		`signature "bbbb"`,    // first disagreeing shard
		`signature "cccc"`,    // second disagreeing shard, field 1
		"total_points 9 vs 8", // second disagreeing shard, field 2
		"shard 2/3 (file 2)",  // each labeled by shard and position
		"shard 3/3 (file 3)",
		"2 of 3 shard files disagree", // the summary line
	} {
		if !strings.Contains(msg, frag) {
			t.Errorf("merge error missing %q:\n%s", frag, msg)
		}
	}
}
