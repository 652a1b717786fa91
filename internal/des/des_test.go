package des

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"overlapsim/internal/units"
)

// fn adapts a closure to Target, for tests where a closure reads clearer
// than a dedicated state machine.
type fn func()

func (f fn) HandleEvent(Kind) { f() }

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.ScheduleEvent(30, fn(func() { order = append(order, 3) }), 0)
	e.ScheduleEvent(10, fn(func() { order = append(order, 1) }), 0)
	e.ScheduleEvent(20, fn(func() { order = append(order, 2) }), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final time %v, want 30", e.Now())
	}
}

func TestEngineTieBreakByInsertion(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleEvent(5, fn(func() { order = append(order, i) }), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events ran out of insertion order: %v", order)
		}
	}
}

func TestEngineScheduleDuringRun(t *testing.T) {
	e := New()
	var trace []units.Time
	e.ScheduleEvent(10, fn(func() {
		trace = append(trace, e.Now())
		e.ScheduleEventAfter(5, fn(func() {
			trace = append(trace, e.Now())
		}), 0)
	}), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Errorf("trace = %v, want [10 15]", trace)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	e.ScheduleEvent(10, fn(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		e.ScheduleEvent(5, fn(func() {}), 0)
	}), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineNilEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event should panic")
		}
	}()
	New().ScheduleEventAfter(0, nil, 0)
}

func TestEngineStop(t *testing.T) {
	e := New()
	ran := 0
	e.ScheduleEvent(1, fn(func() { ran++; e.Stop() }), 0)
	e.ScheduleEvent(2, fn(func() { ran++ }), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran %d events after Stop, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := New()
	e.SetStepLimit(100)
	var tick fn
	tick = func() { e.ScheduleEventAfter(1, tick, 0) }
	e.ScheduleEvent(0, tick, 0)
	if err := e.Run(); err == nil {
		t.Error("expected step-limit error for self-perpetuating schedule")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := New()
	var at units.Time
	e.ScheduleEvent(10, fn(func() {
		e.ScheduleEventAfter(-5, fn(func() { at = e.Now() }), 0)
	}), 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10 {
		t.Errorf("negative delay event ran at %v, want 10", at)
	}
}

func TestPropertyEngineMonotoneClock(t *testing.T) {
	// Whatever the schedule, observed times are non-decreasing and equal to
	// the sorted multiset of scheduled times.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		count := int(n%50) + 1
		want := make([]units.Time, 0, count)
		got := make([]units.Time, 0, count)
		for i := 0; i < count; i++ {
			at := units.Time(rng.Int63n(1000))
			want = append(want, at)
			e.ScheduleEvent(at, fn(func() { got = append(got, e.Now()) }), 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
			if i > 0 && got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResourceImmediateGrant(t *testing.T) {
	r := NewResource("bus", 2)
	granted := 0
	r.Acquire(func() { granted++ })
	r.Acquire(func() { granted++ })
	if granted != 2 {
		t.Fatalf("granted = %d, want 2", granted)
	}
	if r.InUse() != 2 {
		t.Errorf("InUse = %d, want 2", r.InUse())
	}
	if r.Free() {
		t.Error("pool should be exhausted")
	}
}

func TestResourceFIFOQueue(t *testing.T) {
	r := NewResource("bus", 1)
	var order []int
	r.Acquire(func() { order = append(order, 0) })
	r.Acquire(func() { order = append(order, 1) })
	r.Acquire(func() { order = append(order, 2) })
	if len(order) != 1 {
		t.Fatalf("only first acquire should be granted, got %v", order)
	}
	r.Release() // grants 1
	r.Release() // grants 2
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Errorf("grant order = %v, want [0 1 2]", order)
	}
	if r.InUse() != 1 {
		t.Errorf("InUse = %d, want 1 (the last grantee still holds)", r.InUse())
	}
}

func TestResourceInfiniteCapacity(t *testing.T) {
	r := NewResource("ideal", 0)
	granted := 0
	for i := 0; i < 1000; i++ {
		r.Acquire(func() { granted++ })
	}
	if granted != 1000 {
		t.Errorf("granted = %d, want 1000 on infinite pool", granted)
	}
	if r.QueueLen() != 0 {
		t.Errorf("QueueLen = %d, want 0", r.QueueLen())
	}
}

func TestResourceTryAcquire(t *testing.T) {
	r := NewResource("link", 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("releasing an idle resource should panic")
		}
	}()
	NewResource("bus", 1).Release()
}

func TestResourceNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative capacity should panic")
		}
	}()
	NewResource("bad", -1)
}

func TestPropertyResourceConservation(t *testing.T) {
	// Random acquire/release sequences never exceed capacity and grant in
	// FIFO order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cap := rng.Intn(4) + 1
		r := NewResource("p", cap)
		outstanding := 0 // how many grants we have received and not released
		nextID, nextGrant := 0, 0
		ok := true
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 {
				id := nextID
				nextID++
				r.Acquire(func() {
					if id != nextGrant {
						ok = false // out of FIFO order
					}
					nextGrant++
					outstanding++
				})
			} else if outstanding > 0 {
				outstanding--
				r.Release()
			}
			if r.InUse() > cap {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.ScheduleEvent(units.Time(j%97), nopTarget{}, 0)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
