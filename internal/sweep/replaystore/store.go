// Package replaystore persists replay outcomes across processes. A replay
// is a pure function of (trace set, platform); the sweep runner already
// memoizes it in memory per (workload, trace variant, resolved platform),
// but that memo dies with the process — and on platform grids
// every point past the first instrumented run is a replay, so a re-run of
// an identical campaign repaid the whole replay bill. The store writes one
// small file per memo entry next to the trace cache, so a warm re-run (or
// a sibling shard of the same campaign) performs zero instrumented runs
// AND zero replays.
//
// Robustness contract: the store is an accelerator, never a correctness
// dependency. A missing, truncated, corrupt or mixed-version entry is a
// miss — surfaced through Warn, answered by recomputing (and rewriting)
// the entry — and a failed write is best-effort. Writes are atomic
// (temp file + rename, the trace.WriteFileAtomic pattern), so concurrent
// writers racing on one key leave a complete entry from one of them.
package replaystore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// FormatVersion is the store's format version. It prefixes every key (so a
// format change makes old entries miss instead of corrupting results) and
// heads every file (so a file renamed across versions is rejected). Bump it
// whenever the file encoding, the key scheme or the platform hash changes —
// including when machine.Config grows a replay-relevant field, which must
// also be added to platformHash.
const FormatVersion = "rs1"

// fileMagic is the first token of every store file.
const fileMagic = "overlapsim-replay"

// Result is one persisted replay outcome: exactly the fields the sweep
// runner's in-memory memo carries, so a store hit substitutes for a memo
// fill bit for bit. Blocked round-trips through shortest-form decimal,
// which is exact for float64.
type Result struct {
	// Total is the simulated runtime of the replayed execution.
	Total units.Time
	// Steps counts the DES events the replay executed.
	Steps int64
	// Blocked is the execution's mean blocked-time fraction.
	Blocked float64
}

// Store persists replay results in a directory, usually the sweep's trace
// cache directory: entries are <key>.replay files and the key scheme is
// version-prefixed, so the two caches coexist without colliding.
type Store struct {
	// Dir is the store directory; it is created on first Store.
	Dir string
	// Warn, when non-nil, receives a one-line diagnostic whenever a present
	// entry is ignored (corrupt, truncated, wrong version, unreadable) and
	// the replay recomputed. Nil discards the diagnostics.
	Warn func(msg string)
}

// Key returns the store key of one replay: the traced workload — the
// application, its resolved rank count, and the problem scale (size and
// iteration count, 0 meaning the app default, itself stable) — the trace
// variant ("original" or the overlap transform's variant name, which
// embeds the chunk granularity) and the fully resolved platform the
// replay ran on. Everything that shapes a replay's outcome is in the key;
// the platform's display name is presentation and is excluded.
func (s *Store) Key(app string, ranks, size, iters int, variant string, m machine.Config) string {
	return fmt.Sprintf("%s-%s-r%d-s%d-i%d-%s-p%s",
		FormatVersion, sanitizeKey(app), ranks, size, iters, sanitizeKey(variant), platformHash(m))
}

// platformHash fingerprints every replay-relevant machine.Config field
// losslessly: floats are hashed by their IEEE-754 bits, durations and sizes
// as exact integers — the human renderings round (two latencies 400ns apart
// can both print "1.000ms") and a rounded hash would alias two different
// platforms onto one stored result. The field list must be extended (and
// FormatVersion bumped) when machine.Config grows; a test pins the field
// count so an addition cannot slip through silently.
func platformHash(m machine.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "overlapsim-replay-platform-%s\n", FormatVersion)
	fmt.Fprintf(h, "nodes=%d\nranks_per_node=%d\nmips=%s\nlatency=%d\ncpu_overhead=%d\n",
		m.Nodes, m.RanksPerNode, floatBits(float64(m.MIPS)), int64(m.Latency), int64(m.CPUOverhead))
	fmt.Fprintf(h, "bandwidth=%s\nbuses=%d\nin_links=%d\nout_links=%d\neager=%d\n",
		floatBits(float64(m.Bandwidth)), m.Buses, m.InLinks, m.OutLinks, int64(m.EagerThreshold))
	fmt.Fprintf(h, "local_latency=%d\nlocal_bandwidth=%s\ncollectives=%d\n",
		int64(m.LocalLatency), floatBits(float64(m.LocalBandwidth)), uint8(m.Collectives))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// floatBits renders a float64 by its exact bit pattern.
func floatBits(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

// sanitizeKey keeps key components safe as file names: anything outside
// [a-zA-Z0-9._-] becomes '_'. (The sweep trace cache applies the same rule;
// the two packages cannot share it without an import cycle.)
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

// Ext is the file extension of a store entry: <key>.replay.
const Ext = ".replay"

func (s *Store) path(key string) string { return filepath.Join(s.Dir, key+Ext) }

func (s *Store) warnf(format string, args ...any) {
	if s.Warn != nil {
		s.Warn(fmt.Sprintf(format, args...))
	}
}

// Load returns the stored result for the key, or nil when there is none —
// a missing entry, or a present entry that cannot be trusted (truncated,
// corrupt, wrong version, unreadable), which is reported through Warn and
// then treated as a miss so the caller recomputes. Load never fails the
// sweep.
func (s *Store) Load(key string) *Result {
	f, err := os.Open(s.path(key))
	if err != nil {
		// A missing file, directory, or directory component is an ordinary
		// miss (the store simply is not warmed here) — only a present but
		// unreadable entry warrants a warning. Matches the trace cache's
		// isMissing classification.
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, syscall.ENOTDIR) {
			s.warnf("replay store entry %s unreadable (recomputing): %v", key, err)
		}
		return nil
	}
	defer f.Close()
	r, err := decode(f)
	if err != nil {
		s.warnf("replay store entry %s ignored (recomputing): %v", key, err)
		return nil
	}
	return r
}

// decode parses a store file:
//
//	overlapsim-replay rs1
//	total_ns=<int> steps=<int> blocked=<shortest-form float>
func decode(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty file")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 2 || header[0] != fileMagic {
		return nil, fmt.Errorf("bad header %q", sc.Text())
	}
	if header[1] != FormatVersion {
		return nil, fmt.Errorf("format version %q (this build reads %s)", header[1], FormatVersion)
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("truncated file (no result line)")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 3 {
		return nil, fmt.Errorf("bad result line %q", sc.Text())
	}
	var out Result
	for i, want := range []string{"total_ns", "steps", "blocked"} {
		k, v, ok := strings.Cut(fields[i], "=")
		if !ok || k != want {
			return nil, fmt.Errorf("bad result field %q (want %s=...)", fields[i], want)
		}
		var err error
		switch i {
		case 0:
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			out.Total = units.Time(n)
		case 1:
			out.Steps, err = strconv.ParseInt(v, 10, 64)
		case 2:
			out.Blocked, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("bad %s value %q: %v", want, v, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &out, nil
}

// Store writes the result under the key, creating the directory if needed.
// The write is atomic (temp file + rename), so a reader — or a concurrent
// writer racing on the same key — never observes a torn entry.
func (s *Store) Store(key string, r Result) error {
	if err := os.MkdirAll(s.Dir, 0o777); err != nil {
		return fmt.Errorf("replaystore: %w", err)
	}
	err := trace.WriteFileAtomic(s.path(key), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %s\ntotal_ns=%d steps=%d blocked=%s\n",
			fileMagic, FormatVersion, int64(r.Total), r.Steps,
			strconv.FormatFloat(r.Blocked, 'g', -1, 64))
		return err
	})
	if err != nil {
		return fmt.Errorf("replaystore: entry %s: %w", key, err)
	}
	return nil
}
