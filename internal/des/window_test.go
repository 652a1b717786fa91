package des

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"overlapsim/internal/units"
)

// withProcs sets GOMAXPROCS for the rest of the test. Run deals shards to
// that many goroutines, so 1 runs every shard inline and 4 gives the
// workers (and the race detector's view of them) real scheduling
// interleavings even on a single-CPU machine.
func withProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
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
	t.Run("serial", func(t *testing.T) { withProcs(t, 1); testWindowsTokenRing(t) })
	t.Run("workers", func(t *testing.T) { withProcs(t, 4); testWindowsTokenRing(t) })
}

func testWindowsTokenRing(t *testing.T) {
	const shards = 4
	const hop = units.Duration(10)
	const hops = 41

	run := func(n int) (receipts [][]units.Time, windows int64, steps int64) {
		engines := make([]*Engine, n)
		for i := range engines {
			engines[i] = New()
		}
		w := NewWindows(engines)
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
	withProcs(t, 4) // the panic must cross from a worker to the coordinator
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
	withProcs(t, 4)
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
	withProcs(t, 4)
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

// hopper forwards a token to the next shard one lookahead later until its
// budget runs out: cross-shard traffic through typed, allocation-free
// events.
type hopper struct {
	w     *Windows
	hops  []*hopper
	shard int
	left  int
}

const hopLookahead = 10

func (h *hopper) HandleEvent(Kind) {
	if h.left == 0 {
		return
	}
	h.left--
	next := (h.shard + 1) % len(h.hops)
	h.w.Post(next, h.w.engines[h.shard].Now().Add(hopLookahead), h.hops[next], 0)
}

// newHopRun builds shards engines and a Windows over them, and returns a
// function that resets and replays one token run.
func newHopRun(t *testing.T, shards int) (*Windows, func()) {
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = New()
	}
	w := NewWindows(engines)
	hops := make([]*hopper, shards)
	for i := range hops {
		hops[i] = &hopper{w: w, hops: hops, shard: i}
	}
	return w, func() {
		for i, e := range engines {
			e.Reset()
			hops[i].left = 8
			e.ScheduleEvent(units.Time(i), hops[i], 0)
		}
		if n, err := w.Run(hopLookahead); err != nil || n == 0 {
			t.Fatalf("Run = %d, %v", n, err)
		}
	}
}

// TestWindowsRunAllocatesNothing: with real workers, a run of a reused
// Windows allocates nothing, its shard workers are reused rather than
// restarted, and a dropped Windows is collected without stranding a
// goroutine.
func TestWindowsRunAllocatesNothing(t *testing.T) {
	withProcs(t, 4)
	_, run := newHopRun(t, 4)
	run() // grow the queues and inboxes; park the first workers
	before := runtime.NumGoroutine()
	if !raceEnabled {
		if a := testing.AllocsPerRun(50, run); a != 0 {
			t.Errorf("reused Windows run allocates %.1f/run, want 0", a)
		}
	}
	collected := make(chan struct{})
	for i := 0; i < 20; i++ {
		w, run := newHopRun(t, 4)
		run()
		if i == 0 {
			runtime.AddCleanup(w, func(ch chan struct{}) { close(ch) }, collected)
		}
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d over fresh Windows runs", before, n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a dropped Windows was never collected: an idle worker still references it")
		}
	}
}
