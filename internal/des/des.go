package des

import (
	"fmt"

	"overlapsim/internal/units"
)

// Kind discriminates the typed events a Target can receive. The engine
// never interprets kinds; they are an opaque tag the target's HandleEvent
// switches on. Packages define their own kind spaces (per target type).
type Kind uint8

// Target receives typed events. Implementations are usually small state
// machines (a rank, a transfer): scheduling a typed event copies only a
// (target, kind) pair into the queue, so the hot path performs no heap
// allocation — unlike a closure, which would allocate per capture.
type Target interface {
	HandleEvent(k Kind)
}

// scheduled is one pending event. Entries are stored by value inside the
// engine's heap slice: no per-event node allocation, no heap-index
// bookkeeping, and pushes amortize to plain appends. The insertion
// sequence and the event kind share one word (seq<<8 | kind) to keep the
// entry at 32 bytes — heap sifts copy entries, so entry size is ns/op.
type scheduled struct {
	at      units.Time
	seqKind int64 // insertion order in bits 8.., event kind in bits 0..7
	target  Target
}

// kind extracts the event kind from the packed word.
func (s scheduled) kind() Kind { return Kind(s.seqKind) }

// before is the queue ordering: time first, insertion sequence second.
// Comparing the packed words directly is correct: the sequence occupies
// the high bits and is unique, so the kind byte never decides.
func (s scheduled) before(o scheduled) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seqKind < o.seqKind
}

// eventQueue is a 4-ary min-heap of scheduled entries. A wider node halves
// the tree depth versus a binary heap, trading a few extra comparisons per
// level for fewer cache-missing levels — a net win at replay queue depths.
type eventQueue []scheduled

func (q eventQueue) siftUp(i int) {
	s := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	s := q[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(s) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = s
}

// push inserts an entry, growing the slice in amortized constant time.
func (q *eventQueue) push(s scheduled) {
	*q = append(*q, s)
	q.siftUp(len(*q) - 1)
}

// pop removes and returns the earliest entry. The vacated tail slot is
// zeroed so the engine does not retain the event target.
func (q *eventQueue) pop() scheduled {
	old := *q
	n := len(old) - 1
	top := old[0]
	if n > 0 {
		old[0] = old[n]
	}
	old[n] = scheduled{}
	*q = old[:n]
	if n > 1 {
		(*q).siftDown(0)
	}
	return top
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; create engines with New.
type Engine struct {
	now     units.Time
	queue   eventQueue
	seq     int64
	stopped bool
	steps   int64
	maxStep int64 // safety valve; 0 means unlimited
}

// New returns an engine with its clock at zero.
func New() *Engine {
	return &Engine{}
}

// Reset returns the engine to its initial state — clock at zero, no pending
// events, step counter cleared — while keeping the queue's backing array,
// so a reused engine schedules with zero steady-state allocation. The step
// limit is preserved.
func (e *Engine) Reset() {
	clear(e.queue) // drop target references so the kept array retains nothing
	e.queue = e.queue[:0]
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.stopped = false
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() int64 { return e.steps }

// SetStepLimit bounds the number of events Run may execute; 0 removes the
// bound. It protects tests against runaway schedules.
func (e *Engine) SetStepLimit(n int64) { e.maxStep = n }

// ScheduleEvent delivers the typed event (target, kind) at the given
// absolute instant. Scheduling in the past (before Now) panics: it would
// silently corrupt causality, which is always a programming error in the
// replayer.
func (e *Engine) ScheduleEvent(at units.Time, t Target, k Kind) {
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before current time %v", at, e.now))
	}
	if t == nil {
		panic("des: scheduling nil event")
	}
	e.seq++
	e.queue.push(scheduled{at: at, seqKind: e.seq<<8 | int64(k), target: t})
}

// ScheduleEventAfter delivers the typed event (target, kind) after delay d
// from the current time. Negative delays are clamped to zero.
func (e *Engine) ScheduleEventAfter(d units.Duration, t Target, k Kind) {
	if d < 0 {
		d = 0
	}
	e.ScheduleEvent(e.now.Add(d), t, k)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Run executes events in timestamp order until the queue drains, Stop is
// called, or the step limit is exceeded. It returns an error only when the
// step limit fires, which indicates a livelock in the model being simulated.
func (e *Engine) Run() error {
	e.stopped = false
	for len(e.queue) > 0 && !e.stopped {
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
