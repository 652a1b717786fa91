package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"overlapsim/internal/sweep"
)

// Board is a worker's interface to its coordinator: lease, heartbeat,
// complete, fail. Two implementations exist — LocalBoard wraps a
// Coordinator in the same process (the local goroutine pool), and Client
// speaks the HTTP protocol to a remote coordinator — so the worker loop
// is written once and cannot drift between the two deployments.
type Board interface {
	// Lease returns a grant, or (nil, wait, nil) to poll again after wait,
	// or ErrCampaignDone when no work will ever be available again.
	Lease(ctx context.Context) (*Lease, time.Duration, error)
	// Heartbeat renews the lease on chunk; ErrLeaseLost means abandon it.
	Heartbeat(ctx context.Context, chunk int) error
	// Complete reports a finished chunk's shard envelope and work counters.
	Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error
	// Fail reports a failed chunk ahead of lease expiry.
	Fail(ctx context.Context, chunk int, reason string) error
}

// LocalBoard adapts an in-process Coordinator to the Board interface.
type LocalBoard struct {
	C      *Coordinator
	Worker string
}

func (b *LocalBoard) Lease(ctx context.Context) (*Lease, time.Duration, error) {
	return b.C.Lease(b.Worker)
}

func (b *LocalBoard) Heartbeat(ctx context.Context, chunk int) error {
	return b.C.Heartbeat(b.Worker, chunk)
}

func (b *LocalBoard) Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error {
	return b.C.Complete(b.Worker, chunk, work, envelope)
}

func (b *LocalBoard) Fail(ctx context.Context, chunk int, reason string) error {
	return b.C.Fail(b.Worker, chunk, reason)
}

// Worker is the campaign work loop: lease a chunk, run its points under a
// heartbeat, report the shard envelope, repeat until the campaign is
// done. The same loop serves in-process goroutine workers and the
// `overlapsim worker` subcommand.
type Worker struct {
	// Board is the coordinator connection.
	Board Board
	// ID names this worker in leases and logs.
	ID string
	// Runner executes grid points (it carries the caches).
	Runner *sweep.Runner
	// Grid, Signature, Total and NumChunks are the campaign identity the
	// worker runs against; Signature/Total label the chunk envelopes.
	Grid      sweep.Grid
	Signature string
	Total     int
	NumChunks int
	// Chaos, when enabled, injects failures on the seeded schedule.
	Chaos Chaos
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)
	// Exit replaces os.Exit for the chaos crash path (tests override it).
	Exit func(code int)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run pulls and executes chunks until the campaign completes (returns
// nil), the context is cancelled, or the coordinator errors. It retains
// the grid's variants on the Runner while it runs, so a lease never
// transforms a variant an earlier lease already built.
func (w *Worker) Run(ctx context.Context) error {
	defer w.Runner.Retain(w.Grid)()
	for {
		lease, wait, err := w.Board.Lease(ctx)
		switch {
		case errors.Is(err, ErrCampaignDone):
			return nil
		case err != nil:
			return err
		case lease == nil:
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(wait):
			}
			continue
		}
		if err := w.runChunk(ctx, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

// runChunk executes one leased chunk end to end. Chunk-level failures
// (including injected ones) are reported to the board and absorbed — the
// retry policy is the coordinator's business; only a cancelled context or
// a broken board surfaces as an error.
func (w *Worker) runChunk(ctx context.Context, lease *Lease) error {
	switch act := w.Chaos.Action(lease.Chunk, lease.Attempt); act {
	case ActCrash:
		w.logf("worker %s: chaos: crashing on chunk %d attempt %d", w.ID, lease.Chunk, lease.Attempt)
		exit := w.Exit
		if exit == nil {
			exit = os.Exit
		}
		exit(3)
		return fmt.Errorf("campaign: chaos exit returned") // only reachable with an overridden Exit
	case ActStall:
		// Sit past the lease TTL without heartbeating, then run and report
		// anyway: the lease expires under us and the completion arrives
		// stale — exercising exactly-once acceptance of late results.
		w.logf("worker %s: chaos: stalling %s on chunk %d attempt %d", w.ID, 2*lease.TTL, lease.Chunk, lease.Attempt)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * lease.TTL):
		}
		return w.execute(ctx, lease, false, true)
	case ActDrop:
		// Run the chunk, never report it: the lease expires with the work
		// wasted, as if the report was lost in flight.
		w.logf("worker %s: chaos: dropping result of chunk %d attempt %d", w.ID, lease.Chunk, lease.Attempt)
		return w.execute(ctx, lease, true, false)
	}
	return w.execute(ctx, lease, false, false)
}

// execute runs the lease's points and (unless drop) reports the result;
// skipHeartbeat suppresses lease renewal (the stall path).
func (w *Worker) execute(ctx context.Context, lease *Lease, drop, skipHeartbeat bool) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := make(chan struct{})
	if !skipHeartbeat && !drop {
		go w.heartbeat(runCtx, lease, cancel, lost)
	}

	before := w.Runner.Stats()
	indices := lease.Indices()
	var buf bytes.Buffer
	sink := sweep.NewShardSink(&buf, w.Signature, w.Total, sweep.Shard{K: lease.Chunk + 1, N: w.NumChunks}, indices)
	err := w.Runner.RunIndicesSinkContext(runCtx, w.Grid, indices, sink)
	work := w.Runner.Stats().Sub(before)
	cancel()
	if err != nil {
		select {
		case <-lost:
			// The lease moved on while we ran; the chunk is someone else's
			// problem now.
			w.logf("worker %s: abandoning chunk %d (lease lost)", w.ID, lease.Chunk)
			return nil
		default:
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("worker %s: chunk %d failed: %v", w.ID, lease.Chunk, err)
		if ferr := w.Board.Fail(ctx, lease.Chunk, err.Error()); ferr != nil {
			return ferr
		}
		return nil
	}
	if drop {
		return nil
	}

	if err := sink.Close(); err != nil {
		return err
	}
	if err := w.Board.Complete(ctx, lease.Chunk, work, buf.Bytes()); err != nil {
		// A rejected completion (e.g. the chunk finished elsewhere and the
		// coordinator has no use for ours) is not fatal to the worker.
		w.logf("worker %s: completion of chunk %d rejected: %v", w.ID, lease.Chunk, err)
	}
	return nil
}

// heartbeat renews the lease at a third of its TTL until the run context
// ends; a lost lease cancels the run and closes lost.
func (w *Worker) heartbeat(ctx context.Context, lease *Lease, cancel context.CancelFunc, lost chan<- struct{}) {
	interval := lease.TTL / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := w.Board.Heartbeat(ctx, lease.Chunk); err != nil {
			if errors.Is(err, ErrLeaseLost) {
				close(lost)
				cancel()
				return
			}
			w.logf("worker %s: heartbeat for chunk %d failed: %v", w.ID, lease.Chunk, err)
		}
	}
}
