package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
)

// Defaults for the coordinator's robustness knobs.
const (
	DefaultLeaseTTL    = 15 * time.Second
	DefaultMaxAttempts = 5
	DefaultChunkPoints = 4
)

// ErrCampaignDone is returned by Lease when no chunk will ever be
// leasable again: everything is done or quarantined, and the worker
// should exit.
var ErrCampaignDone = errors.New("campaign: complete, no work remains")

// ErrLeaseLost is returned by Heartbeat (and surfaced over HTTP as 410)
// when the caller's lease has expired and the chunk has moved on: the
// worker must abandon the chunk, since a re-lease may already be running
// it elsewhere.
var ErrLeaseLost = errors.New("campaign: lease lost")

// Config configures a Coordinator.
type Config struct {
	// Signature identifies the sweep (sweep.Signature of grid+platform+
	// workload). Workers verify it before running, and chunk files carry it
	// so Assemble inherits sweep.Merge's mixed-campaign checks.
	Signature string
	// Total is the expanded grid's point count.
	Total int
	// ChunkPoints is the lease granularity: points per chunk (default
	// DefaultChunkPoints). Small chunks steal well; large chunks amortise
	// per-chunk overhead.
	ChunkPoints int
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxAttempts quarantines a chunk after this many failed leases
	// (default DefaultMaxAttempts).
	MaxAttempts int
	// Backoff schedules re-leases of failed chunks.
	Backoff Backoff
	// Clock supplies "now" (default RealClock); tests inject a FakeClock.
	Clock Clock
	// Dir is the campaign directory holding the journal and the per-chunk
	// result files.
	Dir string
	// Logf, when set, receives one line per notable event (expiry,
	// quarantine, adoption, stale completion).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.Signature == "" {
		return fmt.Errorf("campaign: config has no signature")
	}
	if c.Total < 1 {
		return fmt.Errorf("campaign: config total %d < 1", c.Total)
	}
	if c.Dir == "" {
		return fmt.Errorf("campaign: config has no directory")
	}
	if c.ChunkPoints < 1 {
		c.ChunkPoints = DefaultChunkPoints
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.Clock == nil {
		c.Clock = RealClock
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Lease is one granted work assignment: run grid points [Lo, Hi) and
// report back within TTL (or heartbeat to extend).
type Lease struct {
	Chunk   int
	Lo, Hi  int
	Attempt int
	TTL     time.Duration
}

// Indices returns the lease's point indices in ascending order.
func (l *Lease) Indices() []int {
	out := make([]int, l.Hi-l.Lo)
	for i := range out {
		out[i] = l.Lo + i
	}
	return out
}

// Counters are the coordinator's campaign-health statistics.
// Their JSON keys, like Work's, are those of serve's /stats document.
type Counters struct {
	Chunks           int `json:"chunks"`            // total chunks in the campaign
	Done             int `json:"done"`              // chunks completed (including adopted)
	Adopted          int `json:"adopted"`           // chunks adopted from surviving result files on resume
	Leases           int `json:"leases"`            // leases granted
	Expired          int `json:"expired"`           // leases that missed their heartbeat deadline
	Failures         int `json:"failures"`          // explicit failure reports from workers
	StaleCompletions int `json:"stale_completions"` // completions accepted after the lease had expired
	Duplicates       int `json:"duplicates"`        // completions discarded because the chunk was already done
	Quarantined      int `json:"quarantined"`       // chunks given up on after MaxAttempts
	// Work sums the runner counters workers reported with their accepted
	// completions; see Complete.
	Work sweep.Counters `json:"work"`
}

// chunkState is one chunk's in-memory state; the durable subset mirrors
// into the journal on every transition that must survive a crash.
type chunkState struct {
	state     State
	attempts  int
	worker    string    // leaseholder while leased
	expires   time.Time // lease deadline while leased
	notBefore time.Time // earliest re-lease while pending after a failure
	lastErr   string    // most recent failure, kept for the quarantine report
}

// Coordinator owns a campaign: the chunk table, the lease ledger and the
// durable journal. All methods are safe for concurrent use; expiry is
// lazy (checked on each Lease call against the injected clock), which is
// sufficient because workers poll for work whenever they are idle.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	chunks   []chunkState
	counters Counters
	done     chan struct{}
	closed   bool
}

// New starts a fresh campaign in cfg.Dir, refusing a directory that
// already holds a journal: an interrupted campaign must be resumed (or
// the directory removed) explicitly, never silently restarted.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if JournalExists(cfg.Dir) {
		return nil, fmt.Errorf("campaign: %s already holds a campaign journal; resume it with -resume or remove the directory", cfg.Dir)
	}
	c := &Coordinator{
		cfg:    cfg,
		chunks: make([]chunkState, numChunks(cfg.Total, cfg.ChunkPoints)),
		done:   make(chan struct{}),
	}
	for i := range c.chunks {
		c.chunks[i].state = StatePending
	}
	c.counters.Chunks = len(c.chunks)
	if err := c.persistLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Resume reopens an interrupted campaign from the journal in cfg.Dir. It
// verifies the campaign identity (signature, total, chunking) against
// cfg, re-queues everything unfinished, and adopts any chunk whose result
// file survived a crash that hit between the result write and the journal
// update — those points are not re-run.
func Resume(cfg Config) (*Coordinator, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	j, err := ReadJournal(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if j.Signature != cfg.Signature {
		return nil, fmt.Errorf("campaign: journal in %s is for sweep %s, not %s — different grid, platform or workload", cfg.Dir, j.Signature, cfg.Signature)
	}
	if j.Total != cfg.Total {
		return nil, fmt.Errorf("campaign: journal covers %d points, this sweep expands to %d", j.Total, cfg.Total)
	}
	// The journal's chunking wins: a resumed campaign must keep the chunk
	// boundaries its result files were written with, whatever -chunk-points
	// says today.
	cfg.ChunkPoints = j.ChunkPoints
	c := &Coordinator{
		cfg:    cfg,
		chunks: make([]chunkState, len(j.Chunks)),
		done:   make(chan struct{}),
	}
	c.counters.Chunks = len(c.chunks)
	dirty := false
	for i, rec := range j.Chunks {
		c.chunks[i] = chunkState{state: rec.State, attempts: rec.Attempts}
		switch rec.State {
		case StateDone:
			// Defensive: done without a readable result file means the
			// journal and the chunk files disagree (manual deletion?); re-run
			// rather than fail the final merge.
			if err := c.validateChunkFile(i); err != nil {
				cfg.Logf("campaign: chunk %d journaled done but result file is unusable (%v); re-queuing", i, err)
				c.chunks[i] = chunkState{state: StatePending, attempts: rec.Attempts}
				dirty = true
			} else {
				c.counters.Done++
			}
		case StatePending:
			// A result file may have survived a crash in the window after
			// its atomic write but before the journal marked the chunk done.
			if err := c.validateChunkFile(i); err == nil {
				cfg.Logf("campaign: adopting surviving result file for chunk %d", i)
				c.chunks[i].state = StateDone
				c.counters.Done++
				c.counters.Adopted++
				dirty = true
			}
		case StateQuarantined:
			c.counters.Quarantined++
		}
	}
	if dirty {
		if err := c.persistLocked(); err != nil {
			return nil, err
		}
	}
	c.checkDoneLocked()
	return c, nil
}

// validateChunkFile checks that chunk j's result file exists, decodes,
// and covers exactly the chunk's indices for this campaign's sweep.
func (c *Coordinator) validateChunkFile(j int) error {
	f, err := os.Open(ChunkFilePath(c.cfg.Dir, j))
	if err != nil {
		return err
	}
	defer f.Close()
	sf, err := sweep.ReadShard(f)
	if err != nil {
		return err
	}
	return c.checkEnvelope(j, sf)
}

// checkEnvelope verifies a decoded shard envelope against chunk j's
// identity: right sweep, right total, exactly the chunk's indices.
func (c *Coordinator) checkEnvelope(j int, sf *sweep.ShardFile) error {
	if sf.Signature != c.cfg.Signature {
		return fmt.Errorf("campaign: chunk %d result is for sweep %s, not %s", j, sf.Signature, c.cfg.Signature)
	}
	if sf.Total != c.cfg.Total {
		return fmt.Errorf("campaign: chunk %d result covers a %d-point sweep, not %d", j, sf.Total, c.cfg.Total)
	}
	indices, _ := sf.Results()
	want := chunkIndices(c.cfg.Total, c.cfg.ChunkPoints, j)
	if len(indices) != len(want) {
		return fmt.Errorf("campaign: chunk %d result holds %d points, want %d", j, len(indices), len(want))
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	for i, idx := range sorted {
		if idx != want[i] {
			return fmt.Errorf("campaign: chunk %d result covers point %d outside its range [%d,%d)", j, idx, want[0], want[len(want)-1]+1)
		}
	}
	return nil
}

// persistLocked writes the journal; callers hold mu (or are in New/Resume
// before the coordinator is shared).
func (c *Coordinator) persistLocked() error {
	j := &Journal{
		Signature:   c.cfg.Signature,
		Total:       c.cfg.Total,
		ChunkPoints: c.cfg.ChunkPoints,
		Chunks:      make([]ChunkRecord, len(c.chunks)),
	}
	for i, cs := range c.chunks {
		j.Chunks[i] = ChunkRecord{State: cs.state, Attempts: cs.attempts}
	}
	return WriteJournal(c.cfg.Dir, j)
}

// expireLocked lapses every lease whose heartbeat deadline has passed,
// routing the chunk to backoff or quarantine. Returns true if any durable
// state changed (caller persists once).
func (c *Coordinator) expireLocked(now time.Time) bool {
	dirty := false
	for i := range c.chunks {
		cs := &c.chunks[i]
		if cs.state != StateLeased || now.Before(cs.expires) {
			continue
		}
		c.counters.Expired++
		c.cfg.Logf("campaign: lease on chunk %d expired (worker %s missed heartbeat, attempt %d)", i, cs.worker, cs.attempts)
		// Backoff runs from the lease's deadline, not from this (lazy)
		// observation: expiry is detected whenever the next idle worker
		// polls, and that scheduling accident must not stretch the retry
		// timetable.
		dirty = c.releaseLocked(i, cs.expires, "lease expired: worker "+cs.worker+" missed heartbeat") || dirty
	}
	return dirty
}

// releaseLocked returns a leased chunk to the queue after a failure
// (expiry or explicit report), quarantining it once attempts reach
// MaxAttempts. Returns true if the transition is durable (quarantine).
func (c *Coordinator) releaseLocked(i int, now time.Time, reason string) bool {
	cs := &c.chunks[i]
	cs.worker = ""
	cs.lastErr = reason
	if cs.attempts >= c.cfg.MaxAttempts {
		cs.state = StateQuarantined
		c.counters.Quarantined++
		c.cfg.Logf("campaign: quarantining chunk %d after %d attempts (last failure: %s)", i, cs.attempts, reason)
		return true
	}
	cs.state = StatePending
	cs.notBefore = now.Add(c.cfg.Backoff.Delay(i, cs.attempts))
	return false
}

// Lease hands the caller the next available chunk. When no chunk is free
// right now but the campaign is still running, it returns (nil, wait,
// nil) with wait > 0: poll again after that long. When nothing will ever
// be leasable again it returns ErrCampaignDone.
func (c *Coordinator) Lease(worker string) (*Lease, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock.Now()
	dirty := c.expireLocked(now)

	best, bestNotBefore := -1, time.Time{}
	anyOpen := false
	for i := range c.chunks {
		cs := &c.chunks[i]
		switch cs.state {
		case StateLeased:
			anyOpen = true
		case StatePending:
			anyOpen = true
			if !now.Before(cs.notBefore) {
				best = i
			} else if best < 0 && (bestNotBefore.IsZero() || cs.notBefore.Before(bestNotBefore)) {
				bestNotBefore = cs.notBefore
			}
		}
		if best >= 0 {
			break
		}
	}
	if best < 0 {
		if dirty {
			if err := c.persistLocked(); err != nil {
				return nil, 0, err
			}
		}
		c.checkDoneLocked()
		if !anyOpen {
			return nil, 0, ErrCampaignDone
		}
		// Everything open is leased or backing off; tell the worker when to
		// come back (earliest backoff deadline, else a fraction of the TTL,
		// by which time a dead peer's lease will have expired).
		wait := c.cfg.LeaseTTL / 4
		if !bestNotBefore.IsZero() {
			if until := bestNotBefore.Sub(now); until < wait {
				wait = until
			}
		}
		if wait <= 0 {
			wait = time.Millisecond
		}
		return nil, wait, nil
	}

	cs := &c.chunks[best]
	cs.state = StateLeased
	cs.worker = worker
	cs.attempts++
	cs.expires = now.Add(c.cfg.LeaseTTL)
	c.counters.Leases++
	// Persist: the attempt count must survive a coordinator crash, or a
	// poison chunk's quarantine counter would reset on every resume.
	if err := c.persistLocked(); err != nil {
		return nil, 0, err
	}
	lo, hi := chunkRange(c.cfg.Total, c.cfg.ChunkPoints, best)
	return &Lease{Chunk: best, Lo: lo, Hi: hi, Attempt: cs.attempts, TTL: c.cfg.LeaseTTL}, 0, nil
}

// Heartbeat extends the caller's lease by a fresh TTL. ErrLeaseLost means
// the lease expired (or the chunk finished elsewhere): stop working on it.
func (c *Coordinator) Heartbeat(worker string, chunk int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if chunk < 0 || chunk >= len(c.chunks) {
		return fmt.Errorf("campaign: heartbeat for unknown chunk %d", chunk)
	}
	now := c.cfg.Clock.Now()
	cs := &c.chunks[chunk]
	if cs.state != StateLeased || cs.worker != worker || now.After(cs.expires) {
		return ErrLeaseLost
	}
	cs.expires = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Complete records a finished chunk: the shard envelope is validated,
// written atomically to the chunk's result file, and only then journaled
// done — so a crash between the two steps is recovered by Resume's
// adoption pass, never by re-running the points. Results are
// deterministic, so a completion whose lease already expired ("stale") is
// still accepted if the chunk has not finished elsewhere; a completion
// for an already-done chunk is counted and discarded. The worker's work
// counters fold into the campaign totals whenever the envelope passes its
// checks, the redundant cases included: the work happened. Work is
// reported only here, so the totals omit chunks that failed, lost their
// lease or were never reported, and completions refused for a bad
// envelope.
func (c *Coordinator) Complete(worker string, chunk int, work sweep.Counters, envelope []byte) error {
	sf, err := sweep.ReadShard(bytes.NewReader(envelope))
	if err != nil {
		return err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if chunk < 0 || chunk >= len(c.chunks) {
		return fmt.Errorf("campaign: completion for unknown chunk %d", chunk)
	}
	if err := c.checkEnvelope(chunk, sf); err != nil {
		return err
	}
	c.counters.Work = c.counters.Work.Add(work)
	now := c.cfg.Clock.Now()
	cs := &c.chunks[chunk]
	if cs.state == StateDone {
		c.counters.Duplicates++
		c.cfg.Logf("campaign: discarding duplicate completion of chunk %d from %s", chunk, worker)
		return nil
	}
	if cs.state != StateLeased || cs.worker != worker || now.After(cs.expires) {
		c.counters.StaleCompletions++
		c.cfg.Logf("campaign: accepting stale completion of chunk %d from %s (lease had lapsed)", chunk, worker)
	}
	err = trace.WriteFileAtomic(ChunkFilePath(c.cfg.Dir, chunk), func(w io.Writer) error {
		_, werr := w.Write(envelope)
		return werr
	})
	if err != nil {
		return fmt.Errorf("campaign: chunk %d result: %w", chunk, err)
	}
	cs.state = StateDone
	cs.worker = ""
	cs.lastErr = ""
	c.counters.Done++
	if err := c.persistLocked(); err != nil {
		return err
	}
	c.checkDoneLocked()
	return nil
}

// Fail is a worker's explicit failure report for its leased chunk: faster
// than waiting for the lease to expire, same retry/quarantine path.
func (c *Coordinator) Fail(worker string, chunk int, reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if chunk < 0 || chunk >= len(c.chunks) {
		return fmt.Errorf("campaign: failure report for unknown chunk %d", chunk)
	}
	cs := &c.chunks[chunk]
	if cs.state != StateLeased || cs.worker != worker {
		// The lease already expired (and was handled) or the chunk finished
		// elsewhere; nothing to do.
		return nil
	}
	c.counters.Failures++
	c.cfg.Logf("campaign: worker %s failed chunk %d: %s", worker, chunk, reason)
	now := c.cfg.Clock.Now()
	dirty := c.releaseLocked(chunk, now, reason)
	if dirty {
		if err := c.persistLocked(); err != nil {
			return err
		}
	}
	c.checkDoneLocked()
	return nil
}

// checkDoneLocked closes the done channel once no chunk can ever be
// leased again (all done or quarantined).
func (c *Coordinator) checkDoneLocked() {
	if c.closed {
		return
	}
	for i := range c.chunks {
		if c.chunks[i].state == StatePending || c.chunks[i].state == StateLeased {
			return
		}
	}
	c.closed = true
	close(c.done)
}

// Done is closed when the campaign can make no more progress: every chunk
// is done or quarantined. Check Err to distinguish the two.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err reports quarantined chunks after the campaign settles; nil means a
// clean, complete campaign.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errLocked()
}

func (c *Coordinator) errLocked() error {
	var bad []string
	for i := range c.chunks {
		if cs := &c.chunks[i]; cs.state == StateQuarantined {
			lo, hi := chunkRange(c.cfg.Total, c.cfg.ChunkPoints, i)
			bad = append(bad, fmt.Sprintf("chunk %d (points %d-%d, %d attempts): %s", i, lo, hi-1, cs.attempts, cs.lastErr))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("campaign: %d chunk(s) quarantined after repeated failures:\n  %s", len(bad), strings.Join(bad, "\n  "))
}

// Counters returns a snapshot of the campaign statistics.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counters
}

// Assemble merges every chunk's result file into unsharded result order.
// It refuses an unsettled or quarantined campaign; the merge re-checks
// signature agreement and exactly-once point coverage, so the output is
// byte-identical to an unsharded run through the same writers.
func (c *Coordinator) Assemble() ([]sweep.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.errLocked(); err != nil {
		return nil, err
	}
	shards := make([]*sweep.ShardFile, 0, len(c.chunks))
	for i := range c.chunks {
		if c.chunks[i].state != StateDone {
			return nil, fmt.Errorf("campaign: assemble before completion: chunk %d is %s", i, c.chunks[i].state)
		}
		f, err := os.Open(ChunkFilePath(c.cfg.Dir, i))
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		sf, err := sweep.ReadShard(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("campaign: chunk %d: %w", i, err)
		}
		shards = append(shards, sf)
	}
	return sweep.Merge(shards)
}
