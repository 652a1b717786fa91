package sweep

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"overlapsim/internal/machine"
	"overlapsim/internal/sweep/replaystore"
)

// warmCacheDir runs a tiny cached sweep so dir holds real entries of both
// kinds, written by the current build.
func warmCacheDir(t *testing.T, dir string) {
	t.Helper()
	r := NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 1
	r.Cache = &TraceCache{Dir: dir}
	r.Store = &replaystore.Store{Dir: dir}
	if _, err := r.Run(Grid{Apps: []string{"pingpong"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.CacheStoreErr(); err != nil {
		t.Fatal(err)
	}
}

// writeStale plants entries carrying a pre-current format version.
func writeStale(t *testing.T, dir string) (keys []string) {
	t.Helper()
	for _, name := range []string{"t0-pingpong-r0-c8-s256-i1.trace", "t0-pingpong-r0-c8-s256-i1.profile", "rs0-pingpong-r2.replay"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("stale"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return []string{"t0-pingpong-r0-c8-s256-i1", "rs0-pingpong-r2"}
}

func TestCacheEntriesListsBothKinds(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	// Neither a subdirectory nor a foreign file is a cache entry.
	if err := os.Mkdir(filepath.Join(dir, "t1-sub.trace"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.json"), []byte("{}"), 0o666); err != nil {
		t.Fatal(err)
	}
	entries, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		if e.Key == "t1-sub" || e.Key == "journal.json" || e.Key == "journal" {
			t.Errorf("non-entry %s listed as a %s entry", e.Key, e.Kind)
		}
		kinds[e.Kind]++
		if !e.Current() {
			t.Errorf("fresh entry %s reported non-current version %q", e.Key, e.Version)
		}
		if e.Size <= 0 {
			t.Errorf("entry %s has size %d", e.Key, e.Size)
		}
		if e.ModTime.IsZero() {
			t.Errorf("entry %s has zero mod time", e.Key)
		}
	}
	if kinds[CacheKindTrace] == 0 || kinds[CacheKindReplay] == 0 {
		t.Fatalf("expected both entry kinds, got %v", kinds)
	}
	for _, e := range entries {
		if e.Kind == CacheKindTrace && len(e.Paths) != 2 {
			t.Errorf("trace entry %s has %d files, want 2", e.Key, len(e.Paths))
		}
	}
}

// TestCacheEntriesStableOrder: the listing is one globally key-sorted
// sequence (kind breaks ties), identical across repeated scans — what
// makes `cache ls` output diffable in scripts.
func TestCacheEntriesStableOrder(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	writeStale(t, dir)
	first, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) < 3 {
		t.Fatalf("expected trace, replay and stale entries, got %d", len(first))
	}
	for i := 1; i < len(first); i++ {
		a, b := first[i-1], first[i]
		if a.Key > b.Key || (a.Key == b.Key && a.Kind >= b.Kind) {
			t.Errorf("entries out of order: %s/%s before %s/%s", a.Kind, a.Key, b.Kind, b.Key)
		}
	}
	again, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(first) {
		t.Fatalf("repeat scan found %d entries, first found %d", len(again), len(first))
	}
	for i := range first {
		if first[i].Kind != again[i].Kind || first[i].Key != again[i].Key {
			t.Errorf("entry %d moved between scans: %s/%s vs %s/%s",
				i, first[i].Kind, first[i].Key, again[i].Kind, again[i].Key)
		}
	}
}

func TestCacheEntriesMissingDirIsEmpty(t *testing.T) {
	entries, err := CacheEntries(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(entries) != 0 {
		t.Fatalf("missing dir: got %d entries, err %v", len(entries), err)
	}
}

// TestPruneStaleVersionsOnly: -stale removes exactly the entries whose key
// version is not the current build's, fresh entries survive untouched.
func TestPruneStaleVersionsOnly(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	staleKeys := writeStale(t, dir)

	entries, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	doomed, kept := PrunePolicy{Stale: true}.Plan(entries)
	doomedKeys := map[string]bool{}
	for _, e := range doomed {
		if e.Current() {
			t.Errorf("stale prune doomed current-version entry %s", e.Key)
		}
		doomedKeys[e.Key] = true
	}
	for _, k := range staleKeys {
		if !doomedKeys[k] {
			t.Errorf("stale entry %s not doomed", k)
		}
	}
	for _, e := range kept {
		if !e.Current() {
			t.Errorf("stale entry %s kept", e.Key)
		}
	}

	// Removal actually deletes every doomed file and nothing else.
	before := countFiles(t, dir)
	var doomedFiles int
	for _, e := range doomed {
		doomedFiles += len(e.Paths)
		if err := RemoveCacheEntry(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := countFiles(t, dir); got != before-doomedFiles {
		t.Errorf("after prune: %d files, want %d", got, before-doomedFiles)
	}
	// The surviving cache still loads: a warm run does zero work.
	r := NewRunner(machine.Default())
	r.Size = 256
	r.Iters = 1
	r.Cache = &TraceCache{Dir: dir}
	r.Store = &replaystore.Store{Dir: dir}
	if _, err := r.Run(Grid{Apps: []string{"pingpong"}}); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Traces != 0 || st.Replays != 0 {
		t.Errorf("pruned cache lost live entries: %+v", st)
	}
}

func countFiles(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}

// synthetic builds a CacheEntry for pure Plan tests.
func synthetic(key string, size int64, age time.Duration, now time.Time) CacheEntry {
	return CacheEntry{
		Kind: CacheKindReplay, Key: key, Version: replaystore.FormatVersion,
		Size: size, ModTime: now.Add(-age),
	}
}

func TestPruneMaxAge(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	entries := []CacheEntry{
		synthetic("a", 10, time.Hour, now),
		synthetic("b", 10, 30*24*time.Hour, now),
		synthetic("c", 10, time.Minute, now),
	}
	doomed, kept := PrunePolicy{MaxAge: 24 * time.Hour, Now: now}.Plan(entries)
	if len(doomed) != 1 || doomed[0].Key != "b" {
		t.Fatalf("doomed = %v, want exactly b", keysOf(doomed))
	}
	if len(kept) != 2 {
		t.Fatalf("kept = %v", keysOf(kept))
	}
}

func TestPruneSizeBudgetEvictsOldestFirst(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	entries := []CacheEntry{
		synthetic("old", 40, 3*time.Hour, now),
		synthetic("mid", 40, 2*time.Hour, now),
		synthetic("new", 40, 1*time.Hour, now),
	}
	doomed, kept := PrunePolicy{MaxSize: 80, Now: now}.Plan(entries)
	if len(doomed) != 1 || doomed[0].Key != "old" {
		t.Fatalf("doomed = %v, want exactly old", keysOf(doomed))
	}
	if len(kept) != 2 || kept[0].Key != "mid" || kept[1].Key != "new" {
		t.Fatalf("kept = %v, want mid,new in input order", keysOf(kept))
	}

	// A budget nothing fits under empties the cache.
	doomed, kept = PrunePolicy{MaxSize: 1, Now: now}.Plan(entries)
	if len(doomed) != 3 || len(kept) != 0 {
		t.Fatalf("tiny budget: doomed %v kept %v", keysOf(doomed), keysOf(kept))
	}

	// A budget everything fits under removes nothing.
	doomed, kept = PrunePolicy{MaxSize: 1000, Now: now}.Plan(entries)
	if len(doomed) != 0 || len(kept) != 3 {
		t.Fatalf("roomy budget: doomed %v kept %v", keysOf(doomed), keysOf(kept))
	}
}

// TestPruneCriteriaCompose: stale and age prune first; the size budget
// applies to the survivors only.
func TestPruneCriteriaCompose(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	stale := CacheEntry{Kind: CacheKindReplay, Key: "rs0-stale", Version: "rs0", Size: 10, ModTime: now.Add(-time.Minute)}
	entries := []CacheEntry{
		stale,
		synthetic("ancient", 10, 100*24*time.Hour, now),
		synthetic("older", 50, 2*time.Hour, now),
		synthetic("newer", 50, 1*time.Hour, now),
	}
	doomed, kept := PrunePolicy{Stale: true, MaxAge: 24 * time.Hour, MaxSize: 60, Now: now}.Plan(entries)
	wantDoomed := map[string]bool{"rs0-stale": true, "ancient": true, "older": true}
	if len(doomed) != len(wantDoomed) {
		t.Fatalf("doomed = %v, want %v", keysOf(doomed), wantDoomed)
	}
	for _, e := range doomed {
		if !wantDoomed[e.Key] {
			t.Errorf("unexpectedly doomed %s", e.Key)
		}
	}
	if len(kept) != 1 || kept[0].Key != "newer" {
		t.Fatalf("kept = %v, want exactly newer", keysOf(kept))
	}
}

func TestPrunePolicyEmpty(t *testing.T) {
	if !(PrunePolicy{}).Empty() {
		t.Error("zero policy should be empty")
	}
	for _, p := range []PrunePolicy{{Stale: true}, {MaxAge: time.Hour}, {MaxSize: 1}} {
		if p.Empty() {
			t.Errorf("policy %+v should not be empty", p)
		}
	}
}

func keysOf(entries []CacheEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Key
	}
	return out
}

// entriesOfKind scans dir and keeps the entries of one kind.
func entriesOfKind(t *testing.T, dir, kind string) []CacheEntry {
	t.Helper()
	all, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []CacheEntry
	for _, e := range all {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func TestTraceCacheRemoveDeletesPair(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	entries := entriesOfKind(t, dir, CacheKindTrace)
	if len(entries) == 0 {
		t.Fatal("no trace entries")
	}
	if err := RemoveCacheEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
	for _, p := range entries[0].Paths {
		if _, err := os.Stat(p); err == nil {
			t.Errorf("%s still exists after Remove", p)
		}
	}
	// Removing again is a no-op, not an error.
	if err := RemoveCacheEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
}

func TestReplayStoreEntriesAndRemove(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	entries := entriesOfKind(t, dir, CacheKindReplay)
	if len(entries) == 0 {
		t.Fatal("no replay entries")
	}
	for _, e := range entries {
		if e.Version != replaystore.FormatVersion {
			t.Errorf("entry %s version %q, want %q", e.Key, e.Version, replaystore.FormatVersion)
		}
	}
	if err := RemoveCacheEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(entries[0].Paths[0]); err == nil {
		t.Errorf("%s still exists after Remove", entries[0].Paths[0])
	}
	if err := RemoveCacheEntry(entries[0]); err != nil {
		t.Fatal(err)
	}
}

// TestCacheEntriesReportsPartialWrites: a temp file an atomic write left
// behind (its writer exited without unwinding) is listed as its own
// non-current kind, so -stale and -max-age remove it, -max-size counts it,
// and the real entries beside it are untouched.
func TestCacheEntriesReportsPartialWrites(t *testing.T) {
	dir := t.TempDir()
	warmCacheDir(t, dir)
	traces := entriesOfKind(t, dir, CacheKindTrace)
	if len(traces) == 0 {
		t.Fatal("no trace entries")
	}
	name := traces[0].Key + ".trace.tmp123456"
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	entries, err := CacheEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	partials := entriesOfKind(t, dir, CacheKindPartial)
	if len(partials) != 1 {
		t.Fatalf("got %d partial entries, want 1", len(partials))
	}
	p := partials[0]
	if p.Key != name || len(p.Paths) != 1 || p.Paths[0] != path || p.Size != 4 || p.Current() {
		t.Fatalf("partial entry = %+v", p)
	}

	var total int64
	for _, e := range entries {
		total += e.Size
	}
	for _, policy := range []PrunePolicy{
		{Stale: true},
		{MaxAge: 24 * time.Hour},
		{MaxSize: total - p.Size},
	} {
		doomed, _ := policy.Plan(entries)
		if len(doomed) != 1 || doomed[0].Key != name {
			t.Errorf("policy %+v dooms %v, want exactly the partial write", policy, keysOf(doomed))
		}
	}

	if err := RemoveCacheEntry(p); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err == nil {
		t.Errorf("%s still exists after Remove", path)
	}
	if got := entriesOfKind(t, dir, CacheKindPartial); len(got) != 0 {
		t.Errorf("partial write still listed after Remove: %v", keysOf(got))
	}
}
