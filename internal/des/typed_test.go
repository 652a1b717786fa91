package des

import (
	"fmt"
	"testing"

	"overlapsim/internal/units"
)

// countTarget is a minimal typed-event target: it records received kinds
// and optionally reschedules itself, mirroring the replayer's self-driving
// rank state machines.
type countTarget struct {
	eng   *Engine
	kinds []Kind
	left  int
}

func (t *countTarget) HandleEvent(k Kind) {
	t.kinds = append(t.kinds, k)
	if t.left > 0 {
		t.left--
		t.eng.ScheduleEventAfter(units.Microsecond, t, k+1)
	}
}

func TestScheduleEventDispatchesKinds(t *testing.T) {
	e := New()
	ct := &countTarget{eng: e, left: 3}
	e.ScheduleEvent(0, ct, 7)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Kind{7, 8, 9, 10}
	if len(ct.kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", ct.kinds, want)
	}
	for i := range want {
		if ct.kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", ct.kinds, want)
		}
	}
	if e.Now() != units.Time(3*units.Microsecond) {
		t.Errorf("Now = %v, want 3us", e.Now())
	}
}

// logTarget is a typed target that logs each received kind into a slice
// shared with other targets, so one log shows the cross-target order.
type logTarget struct{ order *[]string }

func (t logTarget) HandleEvent(k Kind) { *t.order = append(*t.order, fmt.Sprintf("typed-%d", k)) }

func TestTypedAndClosureEventsInterleaveDeterministically(t *testing.T) {
	e := New()
	var order []string
	lt := logTarget{order: &order}
	e.ScheduleEvent(10, fn(func() { order = append(order, "closure") }), 0)
	e.ScheduleEvent(10, lt, 1)
	e.ScheduleEvent(5, lt, 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Same-instant events run in insertion order: the closure target was
	// scheduled at t=10 before the typed event at t=10.
	want := []string{"typed-2", "closure", "typed-1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestScheduleEventNilTargetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on nil target")
		}
	}()
	New().ScheduleEvent(0, nil, 0)
}

func TestEngineResetReusesQueue(t *testing.T) {
	e := New()
	e.SetStepLimit(1 << 20)
	ct := &countTarget{eng: e, left: 5}
	e.ScheduleEvent(0, ct, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stepsFirst := e.Steps()
	e.Reset()
	if e.Now() != 0 || e.Steps() != 0 || e.Pending() != 0 {
		t.Fatalf("Reset left state: now=%v steps=%d pending=%d", e.Now(), e.Steps(), e.Pending())
	}
	ct2 := &countTarget{eng: e, left: 5}
	e.ScheduleEvent(0, ct2, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Steps() != stepsFirst {
		t.Errorf("second run steps = %d, want %d", e.Steps(), stepsFirst)
	}
}

// pingTarget reschedules itself a fixed number of times — the steady-state
// schedule/dispatch cycle of the allocation guard below.
type pingTarget struct {
	eng  *Engine
	left int
}

func (t *pingTarget) HandleEvent(Kind) {
	if t.left > 0 {
		t.left--
		t.eng.ScheduleEventAfter(units.Duration(1+t.left%7)*units.Microsecond, t, 0)
	}
}

// TestTypedEventSteadyStateAllocs pins the tentpole budget: once the queue
// has grown to its working depth, scheduling and dispatching typed events
// must not allocate at all. A regression here means someone reintroduced
// per-event allocation into the DES hot path.
func TestTypedEventSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; budget is pinned by the non-race run")
	}
	e := New()
	const population = 64
	run := func() {
		e.Reset()
		for j := 0; j < population; j++ {
			e.ScheduleEventAfter(units.Duration(j)*units.Microsecond, &pingTarget{eng: e, left: 32}, 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the queue's backing array
	targets := make([]*pingTarget, population)
	for j := range targets {
		targets[j] = &pingTarget{eng: e}
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.Reset()
		for j, pt := range targets {
			pt.left = 32
			e.ScheduleEventAfter(units.Duration(j)*units.Microsecond, pt, 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("typed-event schedule/dispatch cycle allocates %.1f/run, want 0", allocs)
	}
}

// BenchmarkEngineTyped is BenchmarkEngine on the typed-event path: the same
// standing population of self-rescheduling events, but dispatched through
// Target/Kind with a reused engine — the shape of the replay hot loop.
func BenchmarkEngineTyped(b *testing.B) {
	const population = 256
	e := New()
	targets := make([]*pingTarget, population)
	for j := range targets {
		targets[j] = &pingTarget{eng: e}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		for j, pt := range targets {
			pt.left = 63
			e.ScheduleEventAfter(units.Duration(j)*units.Microsecond, pt, 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
