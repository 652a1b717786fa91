package des

import (
	"testing"

	"overlapsim/internal/units"
)

// benchTick is the self-rescheduling load: a shared counter target that
// reschedules itself until the run's step budget is spent, mirroring the
// replayer's self-driving rank machines.
type benchTick struct {
	eng   *Engine
	steps int64
	total int64
}

func (t *benchTick) HandleEvent(Kind) {
	t.steps++
	if t.steps < t.total {
		t.eng.ScheduleEventAfter(units.Duration(1+t.steps%7)*units.Microsecond, t, 0)
	}
}

// BenchmarkEngine measures the engine's core schedule/dispatch loop with a
// replay-like load: a standing population of events where each executed
// event reschedules itself, so pushes and pops interleave at a realistic
// queue depth. Events are typed — the engine's native path.
func BenchmarkEngine(b *testing.B) {
	const population = 256
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		tick := &benchTick{eng: e, total: population * 64}
		for j := 0; j < population; j++ {
			e.ScheduleEventAfter(units.Duration(j)*units.Microsecond, tick, 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// nopTarget is an inert typed target for pure-queue measurements.
type nopTarget struct{}

func (nopTarget) HandleEvent(Kind) {}

// BenchmarkEngineSchedule isolates the queue itself: push a batch of typed
// events in scattered time order, then drain it.
func BenchmarkEngineSchedule(b *testing.B) {
	const batch = 4096
	var nop nopTarget
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < batch; j++ {
			// Deterministic scatter: (j*2654435761) mod batch spreads
			// timestamps without rand.
			at := units.Time(uint32(j) * 2654435761 % batch)
			e.ScheduleEvent(at, nop, 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
