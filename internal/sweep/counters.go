package sweep

import (
	"strconv"
	"strings"
)

// Counters is a snapshot of the runner's work and cache-hit accounting —
// the observable evidence that the caching layers actually cut work. It
// is the one declaration of the work counters: the JSON tags are the keys
// of serve's `work` documents and the campaign wire, and Line renders the
// CLI's `work:` lines and serve's per-job log line.
type Counters struct {
	// Traces counts instrumented application runs executed by this runner.
	Traces int64 `json:"traces"`
	// TraceCacheHits counts workloads served from the persistent cache.
	TraceCacheHits int64 `json:"trace_cache_hits"`
	// Replays counts DES replays actually simulated.
	Replays int64 `json:"replays"`
	// ReplayMemoHits counts replays answered from the in-memory memo.
	ReplayMemoHits int64 `json:"replay_memo_hits"`
	// ReplayStoreHits counts replays answered from the persistent store —
	// work a previous process already paid for. A warm re-run of an
	// identical sweep shows Traces == 0 and Replays == 0 here.
	ReplayStoreHits int64 `json:"replay_store_hits"`
	// Deprecated: BatchedReplays is always 0 (and omitted from JSON);
	// replays are no longer batched.
	BatchedReplays int64 `json:"batched_replays,omitempty"`
	// ParallelWindows counts conservative-window rounds executed by the
	// parallel replay engine; 0 means every replay ran sequentially.
	ParallelWindows int64 `json:"parallel_windows"`
	// PredictedPoints counts grid points answered by surrogate
	// interpolation instead of replay (-approx); 0 in exact mode. The
	// surrogate counters are omitted from JSON when zero, so exact-mode
	// documents are unchanged from earlier releases.
	PredictedPoints int64 `json:"predicted_points,omitempty"`
	// SpotCheckReplays counts the predicted points the error gate
	// replayed exactly to validate their families.
	SpotCheckReplays int64 `json:"spot_check_replays,omitempty"`
	// DemotedFamilies counts interpolation families whose spot checks
	// exceeded the error bound and were demoted to full replay.
	DemotedFamilies int64 `json:"demoted_families,omitempty"`
}

// counter is one field of Counters as Line renders it.
type counter struct {
	v *int64
	// label follows the count on the work line; "" keeps it off the line.
	label string
	// approx puts the count on the line only in -approx runs, so exact-mode
	// lines stay byte-identical to earlier releases.
	approx bool
}

// fields lists every counter of c in declaration order: the one place
// besides the struct that names them.
func (c *Counters) fields() [10]counter {
	return [...]counter{
		{&c.Traces, "instrumented runs", false},
		{&c.TraceCacheHits, "trace-cache hits", false},
		{&c.Replays, "replays", false},
		{&c.ReplayMemoHits, "replay-memo hits", false},
		{&c.ReplayStoreHits, "replay-store hits", false},
		{&c.BatchedReplays, "", false},
		{&c.ParallelWindows, "parallel windows", false},
		{&c.PredictedPoints, "predicted points", true},
		{&c.SpotCheckReplays, "spot-check replays", true},
		{&c.DemotedFamilies, "demoted families", true},
	}
}

// Add returns the fieldwise sum of two counter snapshots — used to fold
// per-worker work accounting into campaign totals.
func (c Counters) Add(o Counters) Counters {
	of := o.fields()
	for i, f := range c.fields() {
		*f.v += *of[i].v
	}
	return c
}

// Sub returns the fieldwise difference c - o: the work done between two
// snapshots of the same runner.
func (c Counters) Sub(o Counters) Counters {
	of := o.fields()
	for i, f := range c.fields() {
		*f.v -= *of[i].v
	}
	return c
}

// Line renders the counters as the text after the "sweep: work: ",
// "run: work: ", "campaign: work: " and serve's per-job "work: "
// prefixes. The surrogate counters appear only when approx is set.
func (c Counters) Line(approx bool) string {
	var b strings.Builder
	for _, f := range c.fields() {
		if f.label == "" || f.approx && !approx {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatInt(*f.v, 10))
		b.WriteByte(' ')
		b.WriteString(f.label)
	}
	return b.String()
}
