package sweep

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"overlapsim/internal/machine"
	"overlapsim/internal/replay"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// sinkFunc adapts a function to Sink, for tests that only observe Accept.
type sinkFunc func(index int, r Result) error

func (f sinkFunc) Accept(index int, r Result) error { return f(index, r) }
func (sinkFunc) Close() error                       { return nil }

// discard is an EachContext emit that keeps nothing.
func discard(int, int) error { return nil }

func TestEachContextCancelStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	err := EachContext(ctx, Engine{Workers: 4}, n, func(i int) (int, error) {
		started.Add(1)
		if i == 2 {
			cancel()
		}
		// Give the other workers a moment to observe the cancellation, so
		// the promptness assertion below is meaningful rather than racy.
		time.Sleep(time.Millisecond)
		return i, nil
	}, discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// "Promptly": claimed jobs finish but the bulk of the grid never runs.
	if s := started.Load(); s >= n/2 {
		t.Errorf("%d of %d jobs started after cancellation", s, n)
	}
}

func TestEachContextCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		err := EachContext(ctx, Engine{Workers: workers}, 10, func(i int) (int, error) {
			t.Errorf("workers=%d: job %d ran under a cancelled context", workers, i)
			return i, nil
		}, discard)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestEachContextOneWorkerChecksBetweenJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := EachContext(ctx, Engine{Workers: 1}, 100, func(i int) (int, error) {
		ran++
		if i == 4 {
			cancel()
		}
		return i, nil
	}, discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 5 {
		t.Errorf("ran %d jobs, want 5 (cancel observed before the next claim)", ran)
	}
}

// TestEachContextCancelBeatsJobFailure: a cancellation that lands during a
// failing job voids the run for every worker count — one worker is a pool
// of one, not a separate loop with its own precedence.
func TestEachContextCancelBeatsJobFailure(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := EachContext(ctx, Engine{Workers: workers}, 10, func(i int) (int, error) {
			if i == 0 {
				cancel()
				return 0, errors.New("injected failure")
			}
			return i, nil
		}, discard)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestEachContextRecoversPanic: a panicking job fails its own index with a
// *JobError carrying the panic value and stack, instead of killing the
// process, and the lowest failing index still wins over a later failure.
func TestEachContextRecoversPanic(t *testing.T) {
	const k = 3
	for _, workers := range []int{1, 4} {
		err := EachContext(context.Background(), Engine{Workers: workers}, 20, func(i int) (int, error) {
			switch i {
			case k:
				panic("replay invariant broken")
			case k + 4:
				return 0, errors.New("later failure")
			}
			return i, nil
		}, discard)
		var je *JobError
		if !errors.As(err, &je) || je.Index != k {
			t.Fatalf("workers=%d: err = %v, want *JobError{Index: %d}", workers, err, k)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Errorf("workers=%d: message %q does not mention the panic", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "replay invariant broken" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic value or stack lost: %#v", workers, pe)
		}
	}
}

// panicReplays makes the first n memo-fill replays panic (every one when n
// is negative) until the test ends; later ones replay normally.
func panicReplays(t *testing.T, n int64) {
	orig := simulate
	t.Cleanup(func() { simulate = orig })
	var calls atomic.Int64
	simulate = func(ts *trace.Set, cfgs []machine.Config, out []replay.Summary, par int) (int, error) {
		if n < 0 || calls.Add(1) <= n {
			panic("replay invariant broken")
		}
		return orig(ts, cfgs, out, par)
	}
}

// TestRunnerPanickedReplayStaysFailed: a replay that panics inside its
// memo fill leaves that entry holding an error, not a zero result. A retry
// on the same Runner, and every other point sharing the replay (chunk
// counts share the original trace's), fails too instead of reporting a
// plausible row with Speedup 1 — even though only that one replay
// panicked and every later replay would succeed.
func TestRunnerPanickedReplayStaysFailed(t *testing.T) {
	for _, workers := range []int{1, 4} {
		panicReplays(t, 1)
		r := NewRunner(machine.Default())
		r.Size = 64
		r.Iters = 1
		r.Engine = Engine{Workers: workers}
		_, err := r.Run(Grid{Apps: []string{"pingpong"}, Chunks: []int{4}})
		var pe *PanicError
		var je *JobError
		if !errors.As(err, &je) || je.Index != 0 || !errors.As(err, &pe) {
			t.Fatalf("workers=%d: first run: err = %v, want *JobError{Index: 0} wrapping *PanicError", workers, err)
		}
		for _, chunks := range [][]int{{4}, {4, 8}} {
			res, err := r.Run(Grid{Apps: []string{"pingpong"}, Chunks: chunks})
			if err == nil || !strings.Contains(err.Error(), "replay panicked: replay invariant broken") {
				t.Fatalf("workers=%d: rerun over chunks %v: err = %v (results %v), want the recorded panic", workers, chunks, err, res)
			}
		}
	}
}

// TestRunnerPlanningPanicFailsRun: the surrogate planner replays anchors
// on the calling goroutine, before any worker starts; a panic there fails
// the run as a *PanicError instead of escaping to the caller.
func TestRunnerPlanningPanicFailsRun(t *testing.T) {
	panicReplays(t, -1)
	r := NewRunner(machine.Default())
	r.Size = 64
	r.Iters = 1
	r.Approx = true
	bws := make([]units.Bandwidth, 8)
	for i := range bws {
		bws[i] = units.Bandwidth(i+1) * 64 * units.MBPerSec
	}
	_, err := r.Run(Grid{Apps: []string{"pingpong"}, Bandwidths: bws})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "replay invariant broken" || len(pe.Stack) == 0 {
		t.Fatalf("err = %v, want a recovered *PanicError from planning", err)
	}
	if !strings.Contains(err.Error(), "planning") {
		t.Errorf("message %q does not name the planning stage", err)
	}
}

// TestRunSinkContextCancelled covers the Runner plumbing: a cancelled
// sweep returns ctx.Err() and delivers nothing, and the runner stays
// usable for a subsequent complete run.
func TestRunSinkContextCancelled(t *testing.T) {
	r := NewRunner(machine.Default())
	r.Size = 64
	r.Iters = 1
	r.Engine = Engine{Workers: 2}
	g := Grid{Apps: []string{"pingpong"}, Chunks: []int{2, 4, 8}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	delivered := 0
	err := r.RunSinkContext(ctx, g, sinkFunc(func(int, Result) error { delivered++; return nil }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if delivered != 0 {
		t.Fatalf("cancelled sweep delivered %d results, want none", delivered)
	}

	// The same runner completes the sweep once the context allows it.
	res, err := r.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.Size() {
		t.Fatalf("got %d results, want %d", len(res), g.Size())
	}
}
