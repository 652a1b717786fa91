package sweep

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"overlapsim/internal/sweep/replaystore"
)

// This file is the cache-operability layer behind `overlapsim cache`: one
// scan of the directory the two persistent caches share — trace/profile
// pairs (TraceCache) and replay results (replaystore) — and the
// version/age/size prune policy a long-running deployment needs to
// survive months of traffic without the cache directory growing without
// bound or dragging dead-format entries along.

// Cache entry kinds, as CacheEntry.Kind reports them.
const (
	CacheKindTrace  = "trace"
	CacheKindReplay = "replay"
	// CacheKindPartial is an orphaned partial write: a temp file
	// trace.WriteFileAtomic left behind because its writer exited without
	// unwinding (a crash, or os.Exit while a pool goroutine was mid-write).
	// It is never Current, so -stale and -max-age remove it and -max-size
	// counts it. A prune can also take the temp file of a writer that is
	// still running; that write then fails its rename and degrades to the
	// best-effort Runner.CacheStoreErr warning, like any failed cache write.
	CacheKindPartial = "partial"
)

// CacheEntry is one entry of the shared cache directory, any kind.
type CacheEntry struct {
	// Kind is CacheKindTrace (a .trace/.profile pair), CacheKindReplay
	// (a .replay file) or CacheKindPartial (one orphaned temp file).
	Kind string
	// Key is the entry's cache key (its files' shared base name); a
	// partial write's key is its whole file name.
	Key string
	// Version is the key's format-version prefix. Current versions are
	// TraceCacheVersion and replaystore.FormatVersion; anything else is a
	// leftover from an older build that can only ever miss.
	Version string
	// Paths are the entry's files, sorted (two for a complete trace
	// entry, one for a torn one or any other kind).
	Paths []string
	// Size is the total size of the entry's files in bytes.
	Size int64
	// ModTime is the newest modification time across the entry's files.
	ModTime time.Time
}

// Current reports whether the entry's key version is the one this build
// reads — a non-current entry can only ever miss.
func (e CacheEntry) Current() bool {
	switch e.Kind {
	case CacheKindTrace:
		return e.Version == TraceCacheVersion
	case CacheKindReplay:
		return e.Version == replaystore.FormatVersion
	}
	return false
}

// CacheEntries enumerates every entry of a shared cache directory as one
// list globally sorted by key (kind breaks the tie), so `cache ls` output
// is stable and diffable across repeated scans regardless of directory
// order or which kind a key belongs to. It is the only reader of the
// directory layout. A missing directory is an empty cache; subdirectories
// and foreign files are skipped, and so is a file that vanishes between
// listing and stat (a concurrent prune or atomic rewrite).
func CacheEntries(dir string) ([]CacheEntry, error) {
	des, err := os.ReadDir(dir)
	if isMissing(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	var out []CacheEntry
	pairAt := map[string]int{} // trace key -> its entry's index in out
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		kind, key := classifyCacheFile(de.Name())
		if kind == "" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(dir, de.Name())
		if kind == CacheKindTrace {
			if i, ok := pairAt[key]; ok {
				// os.ReadDir lists by file name, so the pair's Paths stay sorted.
				e := &out[i]
				e.Paths = append(e.Paths, path)
				e.Size += info.Size()
				if info.ModTime().After(e.ModTime) {
					e.ModTime = info.ModTime()
				}
				continue
			}
			pairAt[key] = len(out)
		}
		out = append(out, CacheEntry{
			Kind: kind, Key: key, Version: keyVersion(key),
			Paths: []string{path}, Size: info.Size(), ModTime: info.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Kind < out[j].Kind
	})
	return out, nil
}

// classifyCacheFile maps one file name of the cache directory to the kind
// and key of the entry it belongs to, or "" for a foreign file.
func classifyCacheFile(name string) (kind, key string) {
	switch ext := filepath.Ext(name); ext {
	case traceExt, profileExt:
		return CacheKindTrace, strings.TrimSuffix(name, ext)
	case replaystore.Ext:
		return CacheKindReplay, strings.TrimSuffix(name, ext)
	}
	// trace.WriteFileAtomic names its temp file <key><ext>.tmp<random>.
	if i := strings.LastIndex(name, ".tmp"); i >= 0 {
		switch filepath.Ext(name[:i]) {
		case traceExt, profileExt, replaystore.Ext:
			return CacheKindPartial, name
		}
	}
	return "", ""
}

// keyVersion extracts a cache key's format-version prefix: the token
// before the first '-', or the whole key if it has none.
func keyVersion(key string) string {
	if i := strings.IndexByte(key, '-'); i >= 0 {
		return key[:i]
	}
	return key
}

// PrunePolicy selects which cache entries to remove. The zero policy
// selects nothing; each criterion is enabled independently and they
// compose: stale-version and over-age entries go first, then the size
// budget evicts oldest-first from what remains.
type PrunePolicy struct {
	// Stale removes entries whose key version is not the current build's
	// (TraceCacheVersion / replaystore.FormatVersion). Such entries can
	// never hit again and only cost disk.
	Stale bool
	// MaxAge, when positive, removes entries whose newest file is older
	// than MaxAge at Now.
	MaxAge time.Duration
	// MaxSize, when positive, is the total-size budget in bytes: after the
	// version and age criteria, the oldest remaining entries are evicted
	// until the rest fit. Recency approximates usefulness — the entries a
	// warm re-run touches are the ones most recently (re)written.
	MaxSize int64
	// Now anchors the age criterion; the zero value means time.Now().
	Now time.Time
}

// Empty reports whether the policy selects nothing — `cache prune` rejects
// it rather than silently doing no work.
func (p PrunePolicy) Empty() bool {
	return !p.Stale && p.MaxAge <= 0 && p.MaxSize <= 0
}

// Plan partitions entries into those the policy removes (doomed) and those
// it keeps, without touching the filesystem — `cache prune -dry-run` is
// Plan without the removal, and tests pin the policy on synthetic entries.
// Both returned slices preserve the input's relative order, so output is
// deterministic for a deterministic scan.
func (p PrunePolicy) Plan(entries []CacheEntry) (doomed, kept []CacheEntry) {
	now := p.Now
	if now.IsZero() {
		now = time.Now()
	}
	doomedAt := make([]bool, len(entries))
	var keptSize int64
	for i, e := range entries {
		switch {
		case p.Stale && !e.Current():
			doomedAt[i] = true
		case p.MaxAge > 0 && now.Sub(e.ModTime) > p.MaxAge:
			doomedAt[i] = true
		default:
			keptSize += e.Size
		}
	}
	if p.MaxSize > 0 && keptSize > p.MaxSize {
		// Oldest-first eviction over the survivors. Ties break by key so
		// the plan is stable when a whole campaign lands in one second.
		order := make([]int, 0, len(entries))
		for i := range entries {
			if !doomedAt[i] {
				order = append(order, i)
			}
		}
		sort.Slice(order, func(a, b int) bool {
			ea, eb := entries[order[a]], entries[order[b]]
			if !ea.ModTime.Equal(eb.ModTime) {
				return ea.ModTime.Before(eb.ModTime)
			}
			return ea.Key < eb.Key
		})
		for _, i := range order {
			if keptSize <= p.MaxSize {
				break
			}
			doomedAt[i] = true
			keptSize -= entries[i].Size
		}
	}
	for i, e := range entries {
		if doomedAt[i] {
			doomed = append(doomed, e)
		} else {
			kept = append(kept, e)
		}
	}
	return doomed, kept
}

// RemoveCacheEntry deletes one entry's files — both of a trace pair, so a
// prune never leaves a torn pair behind. It is the only removal path.
// Files already gone are not errors (a concurrent prune or atomic rewrite
// got there first).
func RemoveCacheEntry(e CacheEntry) error {
	var errs []error
	for _, path := range e.Paths {
		if err := os.Remove(path); err != nil && !isMissing(err) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
