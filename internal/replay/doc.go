// Package replay reconstructs an application's time behaviour from its
// traces on a configurable parallel platform — the role Dimemas plays in
// the paper's environment, and the consumer end of the trace → variant →
// replay pipeline: the tracer produces one original trace, the overlap
// package derives potential (overlapped) variants from it, and this
// package turns each variant into simulated time on a chosen machine.
//
// The simulator is a deterministic discrete-event replayer built on the
// des engine. Every rank is a state machine walking its trace: computation
// bursts occupy the CPU for instructions/MIPS, point-to-point records post
// transfers into a network model with per-node input/output links and a
// shared set of buses, and collectives synchronize all ranks and apply the
// platform's cost formula. Messages at or below the eager threshold leave
// the sender without synchronization; larger ones use a rendezvous that
// couples the sender to the posted receive. The output is a per-rank state
// timeline plus network statistics, ready for the visualization stage.
//
// # Allocation-free hot path
//
// Replay throughput bounds sweep scale — every grid point, shard and
// memoized-miss replays — so the event loop performs no steady-state heap
// allocation. Ranks and transfers implement des.Target and are driven by
// typed events (advance, wire-done, deliver) instead of closures, and all
// per-run scratch is owned and recycled by a replayer: the DES engine and
// its queue, rank state machines with their request slots and timeline
// builders, per-channel FIFO queues, collective slots, and a transfer
// arena. Every transfer is registered in the arena under a stable int32
// id, and the free list holds ids. A transfer returns to the free list
// once it is delivered, matched on both sides and unreferenced by any
// request slot (the trace validator guarantees each request is waited at
// most once, which is what makes the reference count exact). What a run
// leaves out — halves and requests a deadlock or model error stranded,
// every transfer of a parallel run — is reclaimed at the next reset, so
// the arena stays at the per-run peak.
//
// A warm replayer therefore allocates only the result snapshot a Simulate
// call hands back: one block holding the Result and its timeline set, the
// lines slice, and two arenas all ranks' intervals and events are carved
// from (sized up front via timeline.Builder.SnapshotBound, so the count
// is independent of rank count). TestReplaySteadyStateAllocs pins that
// budget (4 allocations for the 4-rank guard workload). SimulateBatch
// returns a Summary instead — the fields a sweep consumes — and allocates
// nothing when warm; it is the sweep runner's replay. Every entry point
// (Simulate, SimulatePar, SimulateBatch) draws replayers from an internal
// pool, so every caller reuses warm scratch automatically, and checks its
// input with trace.Set.ValidateOnce, so a set replayed many times is
// validated once (an overlap.Transform variant arrives validated and
// numbered, so never). Messages match on per-channel FIFO queues held in a
// slice indexed by the set's dense channel ids (trace.Set.Channels, also
// computed once per set), sized to the trace being replayed: a post finds
// its queue without hashing, and a replayer keeps queues for one trace's
// channels, not for every trace it has replayed. Requests work the same
// way: Channels gives every Wait the rank-local slot of the request it
// waits on, a request's slot being its posting order among the rank's
// waited ISend and IRecv records, so each rank holds its open requests in
// a slice sized to its slot count — a post writes the next slot and a
// Wait reads and nils its own, with no map in the loop. A posting no Wait
// consumes (the overlap transform never waits its chunked ISends) is
// marked by Channels, takes no slot and holds no reference, so its
// transfer is recycled once delivered instead of living to the end of the
// run.
//
// Garbage collection empties the replayer pool, so a cold replayer is
// built after every GC cycle; building one is cheap (procs and their
// timelines' first room from three allocations, transfers in chunks,
// channel queues from shared blocks), which is why the pool needs no
// GC-proof idle set.
//
// # Network arbitration
//
// Remote transfers on a contended platform pass through the arbiter,
// which grants one output link on the source node, one input link on the
// destination node and one bus, FIFO with skipping: a queued transfer
// starts as soon as its own resources are free, even when an older one is
// still blocked. Every queued transfer is blocked whenever the arbiter
// returns, and resources change only when a transfer arrives or releases
// them — so an arriving transfer checks only itself (it starts or joins
// the queue), and a release scans the queue oldest first but stops once
// the bus is saturated, since nothing behind that point can start. The
// queue holds arena ids, not pointers: compacting it after a release moves
// 4-byte words with no GC write barriers.
//
// Determinism matters beyond reproducibility: Simulate is a pure function
// of (trace set, machine configuration), which is what lets the sweep
// layer memoize replay results by (workload, variant, platform) and lets
// sharded sweep campaigns promise byte-identical merged output. The
// recycling layer preserves this bit-for-bit: typed events are scheduled
// in exactly the closure path's order, and pooled objects are fully
// re-zeroed, so a reused replayer's output is indistinguishable from a
// cold one's.
package replay
