package sweep

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"overlapsim/internal/apps"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
)

// TraceCache persists profiled trace sets — the output of the instrumented
// run, the expensive stage of the pipeline — in a directory so that
// repeated sweeps, sibling shards and separate processes skip tracing
// entirely. An entry is two files, <key>.trace (the original trace, in the
// trace codec) and <key>.profile (the production/consumption annotations);
// both are written atomically, so a concurrently warming cache never
// exposes a torn entry — at worst a reader sees a miss and re-traces.
type TraceCache struct {
	// Dir is the cache directory; it is created on first Store.
	Dir string
	// Warn, when non-nil, receives a one-line diagnostic whenever a
	// present entry is ignored — truncated, corrupt, or paired with the
	// wrong trace — and the workload re-traced (which rewrites the entry).
	// Nil discards the diagnostics. The cache is an accelerator, never a
	// correctness dependency: a bad entry costs one instrumented run, it
	// cannot fail the sweep or corrupt results.
	Warn func(msg string)
}

// TraceCacheVersion is the trace cache's key-format version. It prefixes
// every key and is bumped whenever the trace or profile encodings (or the
// tracer's semantics) change incompatibly, so stale caches miss instead of
// corrupting results. Entries carrying any other version are what
// `overlapsim cache prune -stale` removes.
const TraceCacheVersion = "t1"

// Key returns the cache key of one instrumented run. Every parameter that
// shapes the traced workload is part of the key: the application, its rank
// count (0 = app default, itself stable), the profiling granularity and the
// problem scale. Keys are stable across processes and releases of the same
// format version; tests pin golden values.
func (c *TraceCache) Key(app string, ranks, chunks, size, iters int) string {
	return fmt.Sprintf("%s-%s-r%d-c%d-s%d-i%d", TraceCacheVersion, sanitizeKey(app), ranks, chunks, size, iters)
}

// sanitizeKey keeps keys safe as file names: anything outside
// [a-zA-Z0-9._-] becomes '_'.
func sanitizeKey(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// The file extensions of a trace-cache entry's two files.
const (
	traceExt   = ".trace"
	profileExt = ".profile"
)

func (c *TraceCache) tracePath(key string) string   { return filepath.Join(c.Dir, key+traceExt) }
func (c *TraceCache) profilePath(key string) string { return filepath.Join(c.Dir, key+profileExt) }

// isMissing classifies errors that mean "no cache entry here" — the file,
// the cache directory, or a directory component does not exist — as
// opposed to a present-but-unreadable entry.
func isMissing(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)
}

// Load returns the cached profiled set for the key, or (nil, nil) when
// there is no usable entry: a missing file or cache directory (including a
// torn entry with only one of its two files), or a present entry that does
// not decode — truncated, corrupt, or a profile that fails validation
// against its trace. Undecodable entries are reported through Warn and
// treated as a miss, so a damaged cache directory costs re-tracing, never
// the sweep: the re-trace stores a fresh entry over the bad one. The error
// return is reserved for failures that are not miss-equivalent; no current
// path produces one.
func (c *TraceCache) Load(key string) (*overlap.ProfiledSet, error) {
	ts, err := trace.ReadFile(c.tracePath(key))
	if isMissing(err) {
		return nil, nil
	}
	if err != nil {
		c.warnf("trace cache entry %s ignored (re-tracing): %v", key, err)
		return nil, nil
	}
	pf, err := os.Open(c.profilePath(key))
	if isMissing(err) {
		return nil, nil
	}
	if err != nil {
		c.warnf("trace cache entry %s ignored (re-tracing): %v", key, err)
		return nil, nil
	}
	defer pf.Close()
	ps, err := overlap.ReadProfiles(pf, ts)
	if err != nil {
		c.warnf("trace cache entry %s ignored (re-tracing): %v", key, err)
		return nil, nil
	}
	return ps, nil
}

// LoadOrTrace returns the profiled set of one workload — app at cfg,
// profiled at chunks granularity: loaded from the cache when it holds an
// entry (hit), otherwise produced by run — the instrumented run — and
// stored for later runs. A nil cache always traces. A failed write does
// not fail the call, because the trace just succeeded; it comes back as
// storeErr so the caller can warn that the next run will recompute.
func (c *TraceCache) LoadOrTrace(app string, cfg apps.Config, chunks int, run func() (*overlap.ProfiledSet, error)) (ps *overlap.ProfiledSet, hit bool, storeErr, err error) {
	if c == nil {
		ps, err = run()
		return ps, false, nil, err
	}
	key := c.Key(app, cfg.Ranks, chunks, cfg.Size, cfg.Iterations)
	if ps, err = c.Load(key); ps != nil || err != nil {
		return ps, ps != nil, nil, err
	}
	if ps, err = run(); err != nil {
		return nil, false, nil, err
	}
	return ps, false, c.Store(key, ps), nil
}

func (c *TraceCache) warnf(format string, args ...any) {
	if c.Warn != nil {
		c.Warn(fmt.Sprintf(format, args...))
	}
}

// Store writes the profiled set under the key, creating the cache
// directory if needed. The profile file lands before the trace file, so
// any reader that sees the trace also sees the profiles.
func (c *TraceCache) Store(key string, ps *overlap.ProfiledSet) error {
	if err := os.MkdirAll(c.Dir, 0o777); err != nil {
		return fmt.Errorf("sweep: cache: %w", err)
	}
	if err := trace.WriteFileAtomic(c.profilePath(key), func(w io.Writer) error {
		return overlap.WriteProfiles(w, ps)
	}); err != nil {
		return fmt.Errorf("sweep: cache entry %s: %w", key, err)
	}
	if err := trace.WriteFile(c.tracePath(key), ps.Original); err != nil {
		return fmt.Errorf("sweep: cache entry %s: %w", key, err)
	}
	return nil
}
