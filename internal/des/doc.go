// Package des implements the discrete-event simulation engine underneath
// the trace replayer (the Dimemas-like stage of the environment) — the
// clockwork at the bottom of the trace → variant → replay pipeline.
//
// The engine is deliberately minimal and fully deterministic: events are
// ordered by (time, insertion sequence), so replaying the same trace set
// on the same platform configuration always yields bit-identical results.
// That property propagates upward — it is what entitles the replay package
// to be treated as a pure function and the sweep layer to memoize replays
// and merge sharded runs byte-identically.
//
// # Typed events
//
// The scheduling hot path is allocation-free end to end. An event is a
// value-typed (Target, Kind) pair: the Target is the simulated object the
// event belongs to (a rank state machine, an in-flight transfer) and the
// Kind is an opaque tag its HandleEvent method switches on. Scheduling via
// ScheduleEvent/ScheduleEventAfter copies that pair into the event queue —
// a 4-ary min-heap of inline 32-byte values (the insertion sequence and
// the kind share one packed word), with no per-event heap allocation and
// no heap-index bookkeeping, because queue churn dominates replay hot
// loops. Typed events are the only way to schedule: there is no closure
// form, so no call site can reintroduce a per-event allocation.
//
// Engines are reusable: Reset rewinds the clock and step counter while
// keeping the queue's backing array, so a replayer that runs many traces
// (every sweep point) schedules with zero steady-state allocation. The
// TestTypedEventSteadyStateAllocs guard pins that budget at exactly zero
// allocations per schedule/dispatch cycle on a warm engine.
//
// The replayer (internal/replay) builds its rank state machines on top of
// the engine and arbitrates network contention itself, in its bus and link
// arbiter; Resource is a standalone server-pool model the replayer does
// not use.
package des
