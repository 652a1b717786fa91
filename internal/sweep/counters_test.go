package sweep

import (
	"reflect"
	"testing"
)

// TestCountersFieldsCoverStruct pins that fields lists every field of
// Counters exactly once, in declaration order, so Add, Sub and Line
// cannot miss a counter added to the struct.
func TestCountersFieldsCoverStruct(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	fs := c.fields()
	if len(fs) != v.NumField() {
		t.Fatalf("fields lists %d counters, Counters declares %d", len(fs), v.NumField())
	}
	for i, f := range fs {
		if want := v.Field(i).Addr().Interface().(*int64); f.v != want {
			t.Errorf("fields()[%d] is not Counters.%s", i, v.Type().Field(i).Name)
		}
	}
}

// distinctCounters sets field i of Counters to base+i.
func distinctCounters(base int64) Counters {
	var c Counters
	for i, f := range c.fields() {
		*f.v = base + int64(i)
	}
	return c
}

func TestCountersAddSub(t *testing.T) {
	a, b := distinctCounters(100), distinctCounters(1)
	sum := a.Add(b)
	for i, f := range sum.fields() {
		if want := int64(101 + 2*i); *f.v != want {
			t.Errorf("Add: field %d = %d, want %d", i, *f.v, want)
		}
	}
	if got := sum.Sub(b); got != a {
		t.Errorf("Sub: %+v, want %+v", got, a)
	}
	if a != distinctCounters(100) || b != distinctCounters(1) {
		t.Error("Add or Sub modified an operand")
	}
}

// TestCountersLine pins the work line's wording: the CLI's `work:` lines
// and serve's job log line are compared against it byte for byte.
func TestCountersLine(t *testing.T) {
	c := distinctCounters(1)
	const exact = "1 instrumented runs, 2 trace-cache hits, 3 replays, 4 replay-memo hits, 5 replay-store hits, 7 parallel windows"
	if got := c.Line(false); got != exact {
		t.Errorf("Line(false) = %q\nwant %q", got, exact)
	}
	const approx = exact + ", 8 predicted points, 9 spot-check replays, 10 demoted families"
	if got := c.Line(true); got != approx {
		t.Errorf("Line(true) = %q\nwant %q", got, approx)
	}
}
