package des

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"overlapsim/internal/units"
)

// This file adds the conservative-window layer on top of Engine: a set of
// independent engines ("shards") advance concurrently, each up to a shared
// barrier at W + lookahead, where W is the globally earliest pending event.
// Any event an executing shard wants to hand to ANOTHER shard must land at
// or past the barrier — the classic conservative (CMB-style) correctness
// condition. Events a shard schedules into itself are unconstrained; they
// go through the ordinary Engine API.

// PeekTime returns the timestamp of the earliest pending event, or false
// when the queue is empty.
func (e *Engine) PeekTime() (units.Time, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Stopped reports whether Stop has been called since the engine last began
// a Run, or since the last RunWindow round sequence was armed. RunWindow,
// unlike Run, does not clear the flag on entry: a stop requested inside
// one window persists so the window coordinator aborts remaining rounds.
func (e *Engine) Stopped() bool { return e.stopped }

// RunWindow executes pending events strictly before limit in timestamp
// order, returning when the next event is at or past limit, the queue
// drains, Stop is called, or the step limit fires (the only error case).
func (e *Engine) RunWindow(limit units.Time) error {
	for len(e.queue) > 0 && !e.stopped && e.queue[0].at < limit {
		s := e.queue.pop()
		e.now = s.at
		e.steps++
		if e.maxStep > 0 && e.steps > e.maxStep {
			return fmt.Errorf("des: step limit %d exceeded at t=%v (livelock in simulated model?)", e.maxStep, e.now)
		}
		s.target.HandleEvent(s.kind())
	}
	return nil
}

// posted is one cross-shard event parked in an inbox until the round
// boundary, when the coordinator moves it into the owning engine.
type posted struct {
	at     units.Time
	target Target
	kind   Kind
}

// inbox collects cross-shard events for one engine. Padded by the mutex's
// own cache behaviour well enough in practice; posts are rare relative to
// intra-shard events.
type inbox struct {
	mu sync.Mutex
	ev []posted
}

// Windows coordinates a fixed set of engines through conservative rounds.
// It is created once per parallel run configuration and may be reused for
// many runs (the engines are Reset and rescheduled by the caller between
// runs). A run of a reused Windows allocates nothing: its channels are made
// here, and its workers come from a process-wide idle set and go back to it
// before Run returns, holding no reference to the Windows.
type Windows struct {
	engines []*Engine
	inboxes []inbox
	barrier atomic.Int64      // current round's barrier, for the Post assertion
	groups  int               // goroutines running this run's shards
	limits  []chan units.Time // per worker (group >= 1): round barriers, then endRun
	errs    []error           // per shard
	panics  []any             // per group
	wg      sync.WaitGroup
}

// NewWindows wraps the given engines. The caller keeps scheduling into each
// engine directly for same-shard work; cross-shard work goes through Post.
func NewWindows(engines []*Engine) *Windows {
	w := &Windows{
		engines: engines,
		inboxes: make([]inbox, len(engines)),
		limits:  make([]chan units.Time, len(engines)),
		errs:    make([]error, len(engines)),
		panics:  make([]any, len(engines)),
	}
	for i := 1; i < len(engines); i++ {
		w.limits[i] = make(chan units.Time, 1)
	}
	return w
}

// endRun, sent in place of a barrier, ends a worker's run.
const endRun units.Time = -1

// idleWorkers parks the task channels of workers between runs. Its size
// bounds how many park; a worker that finds it full exits, and a run that
// finds it empty starts one. 64 covers a sweep's concurrent replays up to
// 8 cores: one per sweep worker, each using GOMAXPROCS-1 workers (56).
var idleWorkers = make(chan chan groupTask, 64)

// groupTask binds a worker to shard group g of one run of w.
type groupTask struct {
	w *Windows
	g int
}

func worker(tasks chan groupTask) {
	for (<-tasks).serve(tasks) {
	}
}

// serve runs the group's rounds until endRun, then parks the worker;
// false means the idle set was full and the worker exits.
func (t groupTask) serve(tasks chan groupTask) (parked bool) {
	w, ch := t.w, t.w.limits[t.g]
	for limit := <-ch; limit != endRun; limit = <-ch {
		func() {
			// A panic inside a shard event (including the Post barrier
			// assertion) re-surfaces on the coordinating goroutine, like
			// it would under sequential Run.
			defer func() { w.panics[t.g] = recover() }()
			w.runGroup(t.g, limit)
		}()
		w.wg.Done()
	}
	select {
	case idleWorkers <- tasks:
		parked = true
	default:
	}
	w.wg.Done()
	return parked
}

// runGroup runs one round of the shards dealt to group g: g, g+groups, ...
func (w *Windows) runGroup(g int, limit units.Time) {
	for i := g; i < len(w.engines); i += w.groups {
		w.errs[i] = w.engines[i].RunWindow(limit)
	}
}

// Post parks a typed event for another shard's engine; it is delivered at
// the next round boundary. Safe to call from any shard's executing event.
// Posting below the current barrier panics: it means the lookahead bound
// was violated and the parallel run would diverge from sequential order.
func (w *Windows) Post(shard int, at units.Time, t Target, k Kind) {
	if b := units.Time(w.barrier.Load()); at < b {
		panic(fmt.Sprintf("des: cross-shard post at %v violates window barrier %v", at, b))
	}
	ib := &w.inboxes[shard]
	ib.mu.Lock()
	ib.ev = append(ib.ev, posted{at: at, target: t, kind: k})
	ib.mu.Unlock()
}

// drain moves parked cross-shard events into their engines. Runs between
// rounds, when no worker executes. When discard is true the entries are
// dropped instead (stale state from an aborted previous run).
func (w *Windows) drain(discard bool) {
	for i := range w.inboxes {
		ib := &w.inboxes[i]
		ib.mu.Lock()
		if !discard {
			for _, p := range ib.ev {
				w.engines[i].ScheduleEvent(p.at, p.target, p.kind)
			}
		}
		clear(ib.ev) // drop target references
		ib.ev = ib.ev[:0]
		ib.mu.Unlock()
	}
}

// Run executes rounds until every engine drains and no cross-shard events
// remain, any engine is stopped (a model-level abort: the caller's error
// state says why), or a step limit fires. lookahead must be positive — it
// is the bound the simulated model guarantees between a cause in one shard
// and its earliest effect in another. Returns the number of window rounds
// executed.
func (w *Windows) Run(lookahead units.Duration) (int64, error) {
	if lookahead <= 0 {
		panic("des: window lookahead must be positive")
	}
	w.drain(true) // a previous aborted run may have left parked events
	for i := range w.engines {
		w.engines[i].stopped = false
		w.errs[i] = nil
		w.panics[i] = nil // a panic may have aborted the previous run
	}
	w.barrier.Store(0)
	// Shards are dealt round-robin to one goroutine per execution slot at
	// most: the coordinator runs group 0 and a worker each other group.
	// More goroutines than slots would only add handoffs; with one slot
	// every shard runs inline, in shard order.
	w.groups = min(len(w.engines), runtime.GOMAXPROCS(0))
	workers := w.limits[min(1, w.groups):w.groups]
	for g := 1; g < w.groups; g++ {
		select {
		case tasks := <-idleWorkers:
			tasks <- groupTask{w, g}
		default:
			tasks := make(chan groupTask, 1)
			tasks <- groupTask{w, g}
			go worker(tasks)
		}
	}
	defer func() {
		w.wg.Wait() // a panic in group 0 may leave a round running
		w.wg.Add(len(workers))
		for _, ch := range workers {
			ch <- endRun
		}
		w.wg.Wait() // every worker is parked again before Run returns
	}()

	var windows int64
	for {
		w.drain(false)
		min := units.MaxTime
		any := false
		for _, e := range w.engines {
			if at, ok := e.PeekTime(); ok && at < min {
				min, any = at, true
			}
		}
		if !any {
			return windows, nil
		}
		b := min.Add(lookahead)
		w.barrier.Store(int64(b))
		windows++
		w.wg.Add(len(workers))
		for _, ch := range workers {
			ch <- b
		}
		w.runGroup(0, b)
		w.wg.Wait()
		for i, p := range w.panics {
			if p != nil {
				w.panics[i] = nil
				panic(p)
			}
		}
		for i, err := range w.errs {
			if err != nil {
				return windows, fmt.Errorf("des: shard %d: %w", i, err)
			}
		}
		for _, e := range w.engines {
			if e.Stopped() {
				return windows, nil
			}
		}
	}
}
