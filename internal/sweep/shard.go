package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/units"
)

// Shard selects a deterministic subset of a grid: shard K of N (1-based).
// Point assignment hashes the expanded point index, so it depends only on
// the index and N — every process that expands the same grid agrees on the
// split without coordination, and the shards are statistically balanced
// even when grid axes correlate with point cost.
//
// The zero Shard means "unsharded": it contains every point.
type Shard struct {
	K int // 1-based shard number
	N int // total shard count; 0 = unsharded
}

// ParseShard parses the "k/N" syntax of the -shard flag, e.g. "1/2".
func ParseShard(s string) (Shard, error) {
	ks, ns, ok := strings.Cut(s, "/")
	k, err1 := strconv.Atoi(ks)
	n, err2 := strconv.Atoi(ns)
	if !ok || err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("sweep: bad shard %q (want k/N, e.g. 1/2)", s)
	}
	sh := Shard{K: k, N: n}
	if sh.N < 1 || sh.K < 1 || sh.K > sh.N {
		return Shard{}, fmt.Errorf("sweep: shard %d/%d out of range (want 1 <= k <= N)", sh.K, sh.N)
	}
	return sh, nil
}

// IsZero reports whether the shard is the unsharded default.
func (s Shard) IsZero() bool { return s.N == 0 }

// String renders the "k/N" form ("all" for the unsharded zero value).
func (s Shard) String() string {
	if s.IsZero() {
		return "all"
	}
	return fmt.Sprintf("%d/%d", s.K, s.N)
}

// shardOf maps a point index to its 0-based shard in an N-way split. The
// hash is FNV-1a over the index's little-endian bytes: stable across
// processes, architectures and releases (golden values are pinned in tests).
func shardOf(index, n int) int {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(index))
	h.Write(b[:])
	return int(h.Sum64() % uint64(n))
}

// Contains reports whether the shard owns the given point index.
func (s Shard) Contains(index int) bool {
	if s.IsZero() {
		return true
	}
	return shardOf(index, s.N) == s.K-1
}

// Indices returns the shard's point indices in ascending order for a grid
// of the given total size. A shard that owns no point gets an empty, non-
// nil slice: to the runner nil means every point.
func (s Shard) Indices(total int) []int {
	out := []int{}
	for i := 0; i < total; i++ {
		if s.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

// Signature fingerprints a sweep: the expanded grid, the base platform and
// the workload scale. Shards carry it so that merge can refuse to combine
// outputs of different sweeps; any change to the grid, the platform or the
// point order changes the signature.
func Signature(g Grid, base machine.Config, size, iters int) string {
	h := sha256.New()
	fmt.Fprintf(h, "overlapsim-sweep-v1\n%+v\nsize=%d iters=%d\n", base, size, iters)
	for _, p := range g.Expand() {
		// The lossless point label: the human rendering rounds (two
		// latencies 400ns apart both print "1.000ms"), and rounding here
		// would let merge combine shards replayed on different platforms.
		fmt.Fprintln(h, p.signatureLabel())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ShardFileVersion is the format version of the shard envelope; merge
// rejects files written by an incompatible release.
const ShardFileVersion = 1

// ShardFile is the on-disk envelope of one shard's results: enough metadata
// to verify that a set of shards belongs to one sweep and covers it exactly,
// plus the full-fidelity results needed to reproduce the unsharded output
// byte for byte.
type ShardFile struct {
	Version   int    `json:"format_version"`
	Signature string `json:"signature"`
	Total     int    `json:"total_points"`
	Shard     string `json:"shard"`
	// ApproxMode records that the shard ran with the surrogate fast path
	// enabled, whether or not any prediction survived the gate; merge
	// propagates it so the merged output carries the approx column exactly
	// when a direct -approx run would. Omitted (false) for exact shards,
	// keeping their envelopes byte-identical to earlier releases.
	ApproxMode bool         `json:"approx_mode,omitempty"`
	Points     []shardPoint `json:"points"`
}

// shardPoint is one indexed result with every Point and Result field in
// lossless form: times and sizes as exact integers, floats as Go's
// shortest-round-trip JSON numbers, mechanisms, pattern and collective
// model as raw enums. Platform-overlay fields are pointers omitted when
// the axis is not swept, so shard files of grids without platform axes
// stay byte-identical to earlier releases (and older files read back with
// an all-unset overlay).
type shardPoint struct {
	Index          int     `json:"index"`
	App            string  `json:"app"`
	Ranks          int     `json:"ranks"`
	PointBandwidth float64 `json:"point_bandwidth"` // grid value; -1 = base platform
	Latency        *int64  `json:"latency_ns,omitempty"`
	Buses          *int    `json:"buses,omitempty"`
	RanksPerNode   *int    `json:"ranks_per_node,omitempty"`
	Eager          *int64  `json:"eager_threshold_bytes,omitempty"`
	Collective     *uint8  `json:"collective,omitempty"`
	Chunks         int     `json:"chunks"`
	Mechanisms     int     `json:"mechanisms"`
	Pattern        int     `json:"pattern"`
	Bandwidth      float64 `json:"bandwidth_bytes_per_sec"` // resolved platform value
	TOriginal      int64   `json:"t_original_ns"`
	TOverlap       int64   `json:"t_overlap_ns"`
	Speedup        float64 `json:"speedup"`
	Blocked        float64 `json:"blocked_fraction"`
	Steps          int64   `json:"des_steps"`
	// Approx marks a surrogate-predicted result; omitted for exact ones,
	// so exact shard files keep their historical encoding byte for byte.
	Approx bool `json:"approx,omitempty"`
}

// setOverlay projects a point's platform overlay onto the shard
// envelope's optional fields.
func (sp *shardPoint) setOverlay(o PlatformOverlay) {
	if o.LatencySet {
		v := int64(o.Latency)
		sp.Latency = &v
	}
	if o.BusesSet {
		v := o.Buses
		sp.Buses = &v
	}
	if o.RanksPerNodeSet {
		v := o.RanksPerNode
		sp.RanksPerNode = &v
	}
	if o.EagerSet {
		v := int64(o.EagerThreshold)
		sp.Eager = &v
	}
	if o.CollectiveSet {
		v := uint8(o.Collective)
		sp.Collective = &v
	}
}

// result reconstructs the full-fidelity Result the shard point encodes —
// the inverse of WriteShard's projection, shared by Merge and the campaign
// coordinator (whose chunk files are shard envelopes).
func (sp *shardPoint) result() Result {
	return Result{
		Point: Point{
			App:        sp.App,
			Ranks:      sp.Ranks,
			Bandwidth:  units.Bandwidth(sp.PointBandwidth),
			Chunks:     sp.Chunks,
			Mechanisms: overlap.Mechanism(sp.Mechanisms),
			Pattern:    overlap.Pattern(sp.Pattern),
			Platform:   sp.overlay(),
		},
		Bandwidth: units.Bandwidth(sp.Bandwidth),
		TOriginal: units.Time(sp.TOriginal),
		TOverlap:  units.Time(sp.TOverlap),
		Speedup:   sp.Speedup,
		Blocked:   sp.Blocked,
		Steps:     sp.Steps,
		Approx:    sp.Approx,
	}
}

// Results returns the envelope's point indices and their decoded results,
// in file order (results[j] is the outcome of grid point indices[j]) — the
// single-file counterpart of Merge for consumers that track coverage
// themselves, like the campaign coordinator's per-chunk result files.
func (sf *ShardFile) Results() ([]int, []Result) {
	indices := make([]int, len(sf.Points))
	results := make([]Result, len(sf.Points))
	for j := range sf.Points {
		indices[j] = sf.Points[j].Index
		results[j] = sf.Points[j].result()
	}
	return indices, results
}

// overlay reconstructs the platform overlay from the envelope's optional
// fields; absent fields stay unset.
func (sp *shardPoint) overlay() PlatformOverlay {
	var o PlatformOverlay
	if sp.Latency != nil {
		o.Latency, o.LatencySet = units.Duration(*sp.Latency), true
	}
	if sp.Buses != nil {
		o.Buses, o.BusesSet = *sp.Buses, true
	}
	if sp.RanksPerNode != nil {
		o.RanksPerNode, o.RanksPerNodeSet = *sp.RanksPerNode, true
	}
	if sp.Eager != nil {
		o.EagerThreshold, o.EagerSet = units.Bytes(*sp.Eager), true
	}
	if sp.Collective != nil {
		o.Collective, o.CollectiveSet = machine.CollectiveModel(*sp.Collective), true
	}
	return o
}

// WriteShard encodes one shard's results, where results[j] is the outcome
// of grid point indices[j]. The envelope's approx mode derives from the
// data; a shard of an -approx run whose predictions were all demoted
// should use WriteShardMode to mark the mode explicitly.
func WriteShard(w io.Writer, signature string, total int, shard Shard, indices []int, results []Result) error {
	return WriteShardMode(w, signature, total, shard, indices, results, anyApprox(results))
}

// WriteShardMode is WriteShard with the envelope's approx-mode flag fixed
// by the caller (true for any -approx run), so merge reproduces the
// direct run's output exactly even when no prediction survived the gate.
func WriteShardMode(w io.Writer, signature string, total int, shard Shard, indices []int, results []Result, approxMode bool) error {
	if len(indices) != len(results) {
		return fmt.Errorf("sweep: %d indices for %d results", len(indices), len(results))
	}
	sf := ShardFile{
		Version:    ShardFileVersion,
		Signature:  signature,
		Total:      total,
		Shard:      shard.String(),
		ApproxMode: approxMode,
		Points:     make([]shardPoint, len(results)),
	}
	for j, r := range results {
		p := r.Point
		sf.Points[j] = shardPoint{
			Index:          indices[j],
			App:            p.App,
			Ranks:          p.Ranks,
			PointBandwidth: float64(p.Bandwidth),
			Chunks:         p.Chunks,
			Mechanisms:     int(p.Mechanisms),
			Pattern:        int(p.Pattern),
			Bandwidth:      float64(r.Bandwidth),
			TOriginal:      int64(r.TOriginal),
			TOverlap:       int64(r.TOverlap),
			Speedup:        r.Speedup,
			Blocked:        r.Blocked,
			Steps:          r.Steps,
			Approx:         r.Approx,
		}
		sf.Points[j].setOverlay(p.Platform)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sf)
}

// ReadShard decodes and validates one shard envelope.
func ReadShard(r io.Reader) (*ShardFile, error) {
	var sf ShardFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("sweep: bad shard file: %w", err)
	}
	if sf.Version != ShardFileVersion {
		return nil, fmt.Errorf("sweep: shard file version %d (this build reads %d)", sf.Version, ShardFileVersion)
	}
	if sf.Total < 0 {
		return nil, fmt.Errorf("sweep: shard file has negative total %d", sf.Total)
	}
	for _, pt := range sf.Points {
		if pt.Index < 0 || pt.Index >= sf.Total {
			return nil, fmt.Errorf("sweep: shard point index %d out of range [0,%d)", pt.Index, sf.Total)
		}
	}
	return &sf, nil
}

// Merge recombines shard outputs into the unsharded result order. It
// verifies that every shard carries the same sweep signature and total, and
// that together they cover every point index exactly once — so the merged
// results written by Write are byte-identical to an unsharded run.
func Merge(shards []*ShardFile) ([]Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sweep: merge of zero shards")
	}
	sig, total := shards[0].Signature, shards[0].Total
	// Report every disagreeing shard and, per shard, every disagreeing
	// envelope field in one pass: an operator untangling a mixed campaign
	// (shards of two different sweeps in one merge) needs the full picture,
	// not one mismatch per invocation.
	var mismatches []string
	for i, sf := range shards[1:] {
		var fields []string
		if sf.Signature != sig {
			fields = append(fields, fmt.Sprintf("signature %q vs %q", sf.Signature, sig))
		}
		if sf.Total != total {
			fields = append(fields, fmt.Sprintf("total_points %d vs %d", sf.Total, total))
		}
		if len(fields) > 0 {
			mismatches = append(mismatches,
				fmt.Sprintf("shard %s (file %d): %s", sf.Shard, i+2, strings.Join(fields, "; ")))
		}
	}
	if len(mismatches) > 0 {
		return nil, fmt.Errorf("sweep: %d of %d shard files disagree with shard %s (file 1) — shards of different sweeps?\n  %s",
			len(mismatches), len(shards), shards[0].Shard, strings.Join(mismatches, "\n  "))
	}
	// Exact coverage requires as many results as points, so check the
	// cheap sum before allocating total-sized slices: a corrupt file with
	// an absurd total_points must fail cleanly, not exhaust memory.
	points := 0
	for _, sf := range shards {
		points += len(sf.Points)
	}
	if points != total {
		return nil, fmt.Errorf("sweep: shards carry %d results for a %d-point sweep (missing or duplicated shards?); run and pass every shard k/N for k = 1..N", points, total)
	}
	out := make([]Result, total)
	seen := make([]bool, total)
	for _, sf := range shards {
		for _, pt := range sf.Points {
			if seen[pt.Index] {
				return nil, fmt.Errorf("sweep: point %d appears in more than one shard", pt.Index)
			}
			seen[pt.Index] = true
			out[pt.Index] = pt.result()
		}
	}
	var missing []int
	for i, ok := range seen {
		if !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		sort.Ints(missing)
		return nil, fmt.Errorf("sweep: merge is missing %d of %d points (first missing index %d); run and pass every shard k/N for k = 1..N", len(missing), total, missing[0])
	}
	return out, nil
}
