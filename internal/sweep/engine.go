package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Engine fans independent jobs out over a bounded worker pool. The zero
// value is valid and uses one worker per CPU.
type Engine struct {
	// Workers bounds the pool; 0 or negative means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, is called once per completed job with the
	// completed count and the total. Calls are serialized and the completed
	// count is strictly increasing, so a callback can print a running
	// "done/total" without its own locking. It must not call back into the
	// engine. A Runner reports grid points the same way, not its jobs: done
	// counts delivered points and total is the number of points the run
	// covers.
	Progress func(done, total int)
}

// WorkerCount returns the effective pool size.
func (e Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.NumCPU()
}

// JobError reports the failure of one job, identified by its index in the
// expanded point order. The engine always surfaces the error of the lowest
// failing index, so the reported failure is independent of the worker
// count.
type JobError struct {
	Index int
	Err   error
}

func (e *JobError) Error() string { return fmt.Sprintf("sweep: job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying job failure.
func (e *JobError) Unwrap() error { return e.Err }

// PanicError is a job that panicked. The engine recovers the panic on the
// worker and reports it as that index's *JobError (a panic while
// delivering the result, as its *SinkError), so one crashing point or sink
// fails its sweep instead of the whole process (a serve daemon keeps
// serving). Stack is the panicking goroutine's stack, kept out of Error so
// status lines stay one line.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// SinkError reports a failed delivery: the emit callback (typically a Sink
// writing results somewhere) returned an error for the given index, or
// emit or the Progress callback panicked (Err is then a *PanicError). Unlike
// a JobError the simulation itself succeeded; the output path is broken, so
// the sweep stops claiming new work.
type SinkError struct {
	Index int
	Err   error
}

func (e *SinkError) Error() string { return fmt.Sprintf("sweep: emit job %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying delivery failure.
func (e *SinkError) Unwrap() error { return e.Err }

// Map runs fn(i) for every i in [0, n) on the engine's worker pool and
// returns the results in index order: EachContext collecting into a slice,
// without cancellation.
func Map[T any](e Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, max(n, 0))
	err := EachContext(context.Background(), e, n, fn, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EachContext runs fn(i) for every i in [0, n) on the engine's worker pool
// and hands each successful result to emit the moment its job completes,
// retaining nothing. fn must be safe for concurrent use and deterministic
// in i for the worker-count invariance guarantee to hold; a panic in fn is
// recovered and reported as that index's *JobError wrapping a *PanicError.
//
// Emit calls arrive in completion order, which is unordered across indices
// and depends on the worker count. They are serialized (an emit callback
// needs no locking of its own) and happen before the Progress callback
// observes the completion. An emit error, or a panic in emit or Progress,
// stops the sweep the same way a job failure does (claimed jobs finish but
// are no longer delivered) and is reported as a *SinkError, so a sink that
// fails mid-run cannot silently drop results, nor crash the process.
//
// On failure EachContext returns a *JobError wrapping the error of the
// lowest failing index. Jobs not yet claimed when a failure is observed
// are skipped; jobs already claimed run to completion. Because workers
// claim indices in ascending order, every index below the lowest failing
// one has been claimed (and succeeds) by the time the failure can be
// observed, so the reported error is the same one a serial run would hit
// first. A job failure takes precedence over an emit failure (emit errors
// arrive in completion order, so theirs is the only error whose identity
// can depend on the worker count).
//
// Cancelling the context stops the sweep promptly: no new jobs are
// claimed, already-claimed jobs run to completion — and still reach emit,
// so an interrupted caller keeps everything that actually finished — and
// EachContext returns ctx.Err(). Cancellation takes precedence over job
// failures observed in the same window, for any worker count: one worker
// is simply a pool of one.
func EachContext[T any](ctx context.Context, e Engine, n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := min(e.WorkerCount(), n)
	var (
		mu        sync.Mutex
		completed int
		jobErr    *JobError  // lowest failing index so far
		sinkErr   *SinkError // first delivery failure
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	// failed stops workers from claiming new jobs; both a job error and a
	// sink error raise it. The errors themselves live under mu, but the
	// claim check must be lock-free.
	var failed atomic.Bool
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if jobErr == nil || i < jobErr.Index {
			jobErr = &JobError{Index: i, Err: err}
		}
		failed.Store(true)
	}
	deliver := func(i int, v T) {
		mu.Lock()
		defer mu.Unlock()
		// After a sink failure nothing more is delivered: the sink's output
		// is already broken, and feeding it further results (or reporting
		// progress for them) would dress up a truncated stream as a live one.
		if sinkErr != nil {
			return
		}
		err := recovered(func() error {
			if err := emit(i, v); err != nil {
				return err
			}
			completed++
			if e.Progress != nil {
				e.Progress(completed, n)
			}
			return nil
		})
		if err != nil {
			sinkErr = &SinkError{Index: i, Err: err}
			failed.Store(true)
		}
	}
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				// The failure/cancellation check precedes the claim: once an
				// index is claimed it always runs, which is what guarantees
				// every index below the lowest failing one completes — and a
				// sink failure raises the same flag, so no worker spends a
				// simulation on a result that can no longer be delivered.
				if failed.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := runJob(fn, i)
				if err != nil {
					fail(i, err)
					return
				}
				deliver(i, v)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if jobErr != nil {
		return jobErr
	}
	if sinkErr != nil {
		return sinkErr
	}
	return nil
}

// runJob calls fn(i), converting a panic into a *PanicError.
func runJob[T any](fn func(i int) (T, error), i int) (v T, err error) {
	err = recovered(func() (err error) {
		v, err = fn(i)
		return err
	})
	return v, err
}

// recovered calls f, converting a panic into a *PanicError.
func recovered(f func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return f()
}
