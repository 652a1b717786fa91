// Package timeline represents simulated per-rank time behaviour: the data
// the replayer produces and the visualization stage renders. It corresponds
// to the state records a Paraver trace holds for each process.
package timeline

import (
	"fmt"

	"overlapsim/internal/units"
)

// State is what a rank is doing during an interval.
type State uint8

// Rank states.
const (
	// Compute: executing a computation burst.
	Compute State = iota
	// SendBlocked: stalled in a blocking (rendezvous) send.
	SendBlocked
	// RecvBlocked: stalled in a blocking receive.
	RecvBlocked
	// WaitBlocked: stalled in a wait for a partial transfer.
	WaitBlocked
	// CollBlocked: stalled in a collective operation.
	CollBlocked
	// Overhead: CPU busy initiating communication (posting sends and
	// receives); paid per partial message and not overlappable.
	Overhead
	// Idle: finished while other ranks keep running.
	Idle
)

var stateNames = [...]string{
	Compute:     "compute",
	SendBlocked: "send",
	RecvBlocked: "recv",
	WaitBlocked: "wait",
	CollBlocked: "collective",
	Overhead:    "overhead",
	Idle:        "idle",
}

// NumStates is the number of defined states.
const NumStates = len(stateNames)

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Blocked reports whether the state is a communication stall.
func (s State) Blocked() bool {
	return s == SendBlocked || s == RecvBlocked || s == WaitBlocked || s == CollBlocked
}

// Interval is a half-open span [Start, End) spent in one state.
type Interval struct {
	Start units.Time
	End   units.Time
	State State
}

// Duration returns the interval length.
func (iv Interval) Duration() units.Duration { return iv.End.Sub(iv.Start) }

// Event is an instantaneous annotation (a phase marker).
type Event struct {
	At    units.Time
	Label string
}

// Timeline is one rank's simulated behaviour.
type Timeline struct {
	Rank      int
	Intervals []Interval
	Events    []Event
	Finish    units.Time
}

// TimeIn sums the time the rank spends in the given state.
func (t *Timeline) TimeIn(s State) units.Duration {
	var total units.Duration
	for _, iv := range t.Intervals {
		if iv.State == s {
			total += iv.Duration()
		}
	}
	return total
}

// BlockedTime sums the time spent in any blocked state.
func (t *Timeline) BlockedTime() units.Duration {
	var total units.Duration
	for _, iv := range t.Intervals {
		if iv.State.Blocked() {
			total += iv.Duration()
		}
	}
	return total
}

// Validate checks the structural invariants: intervals are sorted, non-
// overlapping, of non-negative length, and end by Finish.
func (t *Timeline) Validate() error {
	var cursor units.Time
	for i, iv := range t.Intervals {
		if iv.End < iv.Start {
			return fmt.Errorf("timeline: rank %d interval %d has End %v before Start %v", t.Rank, i, iv.End, iv.Start)
		}
		if iv.Start < cursor {
			return fmt.Errorf("timeline: rank %d interval %d starts at %v, before previous end %v", t.Rank, i, iv.Start, cursor)
		}
		cursor = iv.End
	}
	if cursor > t.Finish {
		return fmt.Errorf("timeline: rank %d intervals end at %v, after Finish %v", t.Rank, cursor, t.Finish)
	}
	return nil
}

// Set is the complete simulated behaviour of one execution.
type Set struct {
	Name    string
	Variant string
	Total   units.Time
	Lines   []Timeline
}

// Validate checks every line plus set-level invariants.
func (s *Set) Validate() error {
	var max units.Time
	for i := range s.Lines {
		if err := s.Lines[i].Validate(); err != nil {
			return err
		}
		if s.Lines[i].Finish > max {
			max = s.Lines[i].Finish
		}
	}
	if max > s.Total {
		return fmt.Errorf("timeline: rank finish %v exceeds set total %v", max, s.Total)
	}
	return nil
}

// Builder incrementally records one rank's state transitions during replay.
type Builder struct {
	line  Timeline
	open  bool
	start units.Time
	state State
}

// NewBuilder starts a timeline for the given rank.
func NewBuilder(rank int) *Builder {
	return &Builder{line: Timeline{Rank: rank}}
}

// Reset makes the builder record a fresh timeline for the given rank while
// keeping the interval and event backing arrays, so a reused builder
// reaches zero steady-state allocation. Timelines returned by earlier
// Finish calls are unaffected: Finish hands out an independent snapshot.
func (b *Builder) Reset(rank int) {
	b.line.Rank = rank
	b.line.Intervals = b.line.Intervals[:0]
	b.line.Events = b.line.Events[:0]
	b.line.Finish = 0
	b.open = false
}

// Provide gives the builder the empty backing arrays ivs and evs to record
// into, replacing its own, so a caller setting up many builders can size
// them all from one allocation. Recording past their capacity grows them
// as usual.
func (b *Builder) Provide(ivs []Interval, evs []Event) {
	b.line.Intervals, b.line.Events = ivs[:0], evs[:0]
}

// Enter switches the rank into the given state at time now, closing any
// open interval. Zero-length intervals are dropped and adjacent intervals
// in the same state merge.
func (b *Builder) Enter(now units.Time, s State) {
	if b.open {
		if b.state == s {
			return
		}
		b.close(now)
	}
	b.open = true
	b.start = now
	b.state = s
}

// Mark records an instantaneous labeled event.
func (b *Builder) Mark(now units.Time, label string) {
	b.line.Events = append(b.line.Events, Event{At: now, Label: label})
}

func (b *Builder) close(now units.Time) {
	if now > b.start {
		n := len(b.line.Intervals)
		if n > 0 && b.line.Intervals[n-1].State == b.state && b.line.Intervals[n-1].End == b.start {
			b.line.Intervals[n-1].End = now
		} else {
			b.line.Intervals = append(b.line.Intervals, Interval{Start: b.start, End: now, State: b.state})
		}
	}
	b.open = false
}

// StateDurations sums the time spent in each state as if the timeline were
// closed at now, without snapshotting it: the per-state totals equal
// TimeIn on the Timeline that Finish(now) would return, but nothing is
// allocated and the builder keeps recording. The batch replay path uses
// this to summarize a point without materializing per-rank timelines.
func (b *Builder) StateDurations(now units.Time) [NumStates]units.Duration {
	var d [NumStates]units.Duration
	for _, iv := range b.line.Intervals {
		d[iv.State] += iv.Duration()
	}
	if b.open && now > b.start {
		d[b.state] += now.Sub(b.start)
	}
	return d
}

// Finish closes the timeline at the given instant and returns it. The
// returned Timeline owns its interval and event slices — it stays valid
// after the builder is Reset and reused.
func (b *Builder) Finish(now units.Time) Timeline {
	out, _, _ := b.FinishInto(now, nil, nil)
	return out
}

// SnapshotBound returns upper bounds on the interval and event counts the
// next Finish or FinishInto call would snapshot (closing an open interval
// may append one entry or merge into the last). Callers building many
// timelines sum the bounds to pre-size shared arenas so FinishInto never
// grows them.
func (b *Builder) SnapshotBound() (intervals, events int) {
	n := len(b.line.Intervals)
	if b.open {
		n++
	}
	return n, len(b.line.Events)
}

// FinishInto is Finish appending the snapshot's backing data to the given
// arenas instead of allocating per call, returning the grown arenas. The
// returned Timeline's slices are capacity-clipped views into the arenas,
// so later appends by the owner cannot alias them; arenas pre-sized via
// SnapshotBound make a whole set of timelines cost two allocations. Nil
// arenas reproduce Finish exactly.
func (b *Builder) FinishInto(now units.Time, ivs []Interval, evs []Event) (Timeline, []Interval, []Event) {
	if b.open {
		b.close(now)
	}
	b.line.Finish = now
	out := b.line
	// Empty slices normalize to nil so a reused builder's output is
	// indistinguishable from a fresh one's.
	out.Intervals, out.Events = nil, nil
	if len(b.line.Intervals) > 0 {
		start := len(ivs)
		ivs = append(ivs, b.line.Intervals...)
		out.Intervals = ivs[start:len(ivs):len(ivs)]
	}
	if len(b.line.Events) > 0 {
		start := len(evs)
		evs = append(evs, b.line.Events...)
		out.Events = evs[start:len(evs):len(evs)]
	}
	return out, ivs, evs
}
