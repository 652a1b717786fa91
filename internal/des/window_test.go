package des

import (
	"runtime"
	"strings"
	"testing"

	"overlapsim/internal/units"
)

// withWorkers raises GOMAXPROCS so the spawned worker goroutines (and the
// race detector's view of them) get real scheduling interleavings even on
// a single-CPU machine.
func withWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestPeekTime(t *testing.T) {
	e := New()
	if _, ok := e.PeekTime(); ok {
		t.Fatal("PeekTime on empty engine reported an event")
	}
	e.ScheduleEvent(30, fn(func() {}), 0)
	e.ScheduleEvent(10, fn(func() {}), 0)
	if at, ok := e.PeekTime(); !ok || at != 10 {
		t.Fatalf("PeekTime = %v,%v, want 10,true", at, ok)
	}
}

func TestRunWindowStopsAtLimit(t *testing.T) {
	e := New()
	var fired []units.Time
	for _, at := range []units.Time{0, 5, 10, 15} {
		at := at
		e.ScheduleEvent(at, fn(func() { fired = append(fired, at) }), 0)
	}
	if err := e.RunWindow(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [0 5] (events at limit must wait)", fired)
	}
	if at, ok := e.PeekTime(); !ok || at != 10 {
		t.Fatalf("next pending = %v,%v, want 10,true", at, ok)
	}
	if err := e.RunWindow(units.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired = %v, want all four", fired)
	}
}

func TestRunWindowPreservesStop(t *testing.T) {
	e := New()
	e.ScheduleEvent(0, fn(func() { e.Stop() }), 0)
	e.ScheduleEvent(1, fn(func() { t.Error("event after Stop executed") }), 0)
	if err := e.RunWindow(100); err != nil {
		t.Fatal(err)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	// A second window must not resume: RunWindow does not clear the flag.
	if err := e.RunWindow(units.MaxTime); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the stranded event still queued", e.Pending())
	}
}

// tokenRing passes a token around a ring of shards: on receipt at time t
// an actor records t and forwards the token to the next shard at t+hop.
// The cross-shard forward lands exactly at the barrier (hop == lookahead),
// the tightest legal post.
type tokenRing struct {
	w      *Windows
	actors []*tokenActor
	hop    units.Duration
	left   int // hops remaining
}

type tokenActor struct {
	ring     *tokenRing
	shard    int
	receipts []units.Time
}

func (a *tokenActor) HandleEvent(Kind) {
	r := a.ring
	now := r.w.engines[a.shard].Now()
	a.receipts = append(a.receipts, now)
	if r.left > 0 {
		r.left--
		next := (a.shard + 1) % len(r.actors)
		if next == a.shard {
			// Single-shard reference run: a self-post goes through the
			// engine directly, like any same-shard event.
			r.w.engines[a.shard].ScheduleEvent(now.Add(r.hop), a, 0)
		} else {
			r.w.Post(next, now.Add(r.hop), r.actors[next], 0)
		}
	}
}

func TestWindowsTokenRingMatchesSequential(t *testing.T) {
	t.Run("serial", func(t *testing.T) { testWindowsTokenRing(t, true) })
	t.Run("workers", func(t *testing.T) { withWorkers(t); testWindowsTokenRing(t, false) })
}

func testWindowsTokenRing(t *testing.T, serial bool) {
	const shards = 4
	const hop = units.Duration(10)
	const hops = 41

	run := func(n int) (receipts [][]units.Time, windows int64, steps int64) {
		engines := make([]*Engine, n)
		for i := range engines {
			engines[i] = New()
		}
		w := NewWindows(engines)
		w.Serial = serial
		ring := &tokenRing{w: w, hop: hop, left: hops}
		ring.actors = make([]*tokenActor, n)
		for i := range ring.actors {
			ring.actors[i] = &tokenActor{ring: ring, shard: i}
		}
		engines[0].ScheduleEvent(0, ring.actors[0], 0)
		windows, err := w.Run(hop)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			steps += e.Steps()
		}
		receipts = make([][]units.Time, n)
		for i, a := range ring.actors {
			receipts[i] = a.receipts
		}
		return receipts, windows, steps
	}

	// Reference: the same ring on a single shard (Windows with one engine
	// is sequential by construction).
	wantReceipts, _, wantSteps := run(1)
	_ = wantReceipts

	gotReceipts, windows, steps := run(shards)
	if steps != wantSteps {
		t.Fatalf("steps = %d, want %d", steps, wantSteps)
	}
	// The token visits shard k%shards at time k*hop.
	total := 0
	for i, rs := range gotReceipts {
		for _, at := range rs {
			k := int64(at) / int64(hop)
			if int(k)%shards != i {
				t.Fatalf("shard %d received token at %v (hop %d), want shard %d", i, at, k, int(k)%shards)
			}
			total++
		}
	}
	if total != hops+1 {
		t.Fatalf("total receipts = %d, want %d", total, hops+1)
	}
	// One token, one event per round: the round count equals the number of
	// receipts after the initial one plus the initial round.
	if windows != hops+1 {
		t.Fatalf("windows = %d, want %d", windows, hops+1)
	}
}

func TestWindowsPostBelowBarrierPanics(t *testing.T) {
	withWorkers(t) // the panic must cross from a worker to the coordinator
	engines := []*Engine{New(), New()}
	w := NewWindows(engines)
	bad := fn(func() {})
	offender := fn(func() {
		// Barrier for this round is 0+lookahead(10); posting at 5 violates it.
		w.Post(1, 5, bad, 0)
	})
	engines[0].ScheduleEvent(0, offender, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("post below barrier did not panic")
		}
		if !strings.Contains(r.(string), "violates window barrier") {
			t.Fatalf("panic = %v", r)
		}
	}()
	w.Run(10)
}

func TestWindowsStopAborts(t *testing.T) {
	engines := []*Engine{New(), New()}
	w := NewWindows(engines)
	engines[0].ScheduleEvent(0, fn(func() { engines[0].Stop() }), 0)
	engines[1].ScheduleEvent(100, fn(func() { t.Error("event in later window ran after a shard stopped") }), 0)
	if _, err := w.Run(10); err != nil {
		t.Fatal(err)
	}
	if engines[1].Pending() != 1 {
		t.Fatal("later-window event was consumed despite stop")
	}
}

func TestWindowsStepLimit(t *testing.T) {
	withWorkers(t)
	engines := []*Engine{New(), New()}
	engines[0].SetStepLimit(3)
	w := NewWindows(engines)
	var chain fn
	n := 0
	chain = func() {
		n++
		engines[0].ScheduleEventAfter(1, chain, 0)
	}
	engines[0].ScheduleEvent(0, chain, 0)
	if _, err := w.Run(1000); err == nil {
		t.Fatal("step limit did not surface from Run")
	}
}

func TestWindowsReuse(t *testing.T) {
	withWorkers(t)
	// The same Windows can coordinate run after run once the engines are
	// reset and rescheduled — the replayer pools exactly this way.
	engines := []*Engine{New(), New(), New()}
	w := NewWindows(engines)
	for round := 0; round < 3; round++ {
		for _, e := range engines {
			e.Reset()
		}
		counts := make([]int, len(engines))
		for i, e := range engines {
			i := i
			e.ScheduleEvent(units.Time(i), fn(func() { counts[i]++ }), 0)
		}
		if _, err := w.Run(5); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("run %d shard %d executed %d events, want 1", round, i, c)
			}
		}
	}
}
