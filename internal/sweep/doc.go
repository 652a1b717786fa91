// Package sweep is the parameter-sweep subsystem: it expands a declarative
// grid of simulation configurations (application × ranks × bandwidth ×
// platform axes × chunk granularity × overlap mechanism × pattern) into
// independent jobs, fans them out over a bounded worker pool, and merges
// the results in stable point order. This is the methodology of the
// source paper at scale: trace an application once, then replay it across
// many platform configurations to map speedup and iso-performance curves.
//
// The platform axes — Latencies, Buses, RanksPerNode, EagerThresholds,
// Collectives — span the rest of the machine model. Each grid point
// carries a PlatformOverlay the Runner applies to the base machine
// config; the axes are replay-only, so a platform grid of any width
// shares one instrumented run per (app, ranks, chunks) workload.
//
// # Determinism contract
//
// Every job is a pure function of its grid point. Grid.Expand defines a
// stable nested order (apps outermost, patterns innermost), jobs are
// claimed in ascending point order, and results (and the first error) are
// reported in point order — so the output of a sweep is byte-identical
// regardless of the worker count, the shard split, or which caches were
// warm. Everything below is an optimization that must not (and, by test,
// does not) change a single output byte.
//
// # One execution path
//
// Every sweep — Run, RunSink, RunSinkContext, RunIndicesSinkContext —
// wraps one core: validate and expand the grid, resolve the expanded-
// point indices to run (nil means all), plan the surrogate's families
// (no replays), then fan the work out on EachContext: one job per family,
// then one per point. EachContext hands each result to a Sink as it
// completes (unordered, serialized); a family job delivers its resolved
// members the moment it finishes. Every replay is one memo fill on a
// worker, so results stream while later points replay. Map is EachContext
// collecting into a slice. A panicking point job fails only its own
// index, as a *JobError wrapping a *PanicError; a panic in planning or in
// a family job fails the run with a *PanicError named as planning.
//
// # The results pipeline
//
// Results leave the system through the Sink interface: Accept receives
// each completed point (out of order, serialized), Close finalizes the
// output. One unexported encoder writes each of the table, CSV and JSON
// encodings: the header, one row per result, the terminator. Write
// runs it over a slice; BatchSink buffers the results and calls Write on
// Close; OrderedSink is an ordering buffer in front of the encoder that
// flushes the longest finished prefix of grid order as it grows (an
// interrupted sweep keeps a well-formed ordered partial file). So every
// path gives the same bytes for the same rows. ShardSink writes the merge
// envelope, and TeeSink fans one run out to several sinks. Runner.RunSink
// feeds any sink while retaining nothing, so a campaign-scale grid
// streams through constant memory.
//
// # The work-avoidance layers
//
// A grid point costs, from most to least expensive: an instrumented
// application run (tracing), two DES replays, and one trace
// transformation. Four caching layers collapse the duplicates a grid
// inevitably contains:
//
//   - Runner.Workload memoizes each traced workload (an app at an
//     apps.Config, profiled at a chunk count) as a *Workload holding a
//     core.Study; the experiment harness asks the same Runner for its own.
//   - Runner.Cache (*TraceCache) persists profiled trace sets on disk,
//     keyed by (app, ranks, chunks, size, iters). It works across
//     processes: repeated sweeps and sibling shards of one campaign skip
//     the instrumented run entirely. TraceCache.LoadOrTrace is the one
//     load-else-trace-and-store path.
//   - Workload.Replay memoizes completed replays by (app, resolved
//     ranks, size, iters, trace variant, platform), plus the profiled
//     chunk count for overlapped variants. The key names the variant
//     without building it, so a hit transforms nothing. The original trace's variant
//     is independent of the mechanism/pattern/chunk axes, so sweeping
//     those axes pays for the original replay once instead of once per
//     point — roughly halving the replays of such grids. A fill replays
//     on the Summary path (replay.SimulateBatch with one platform), which
//     builds no timelines, and each trace set validates once however
//     often the workers alternate between sets (trace.Set.ValidateOnce).
//     An overlapped variant does not validate at all: overlap.Transform
//     hands it over already validated and channel-numbered.
//   - Runner.Store (*replaystore.Store) persists the replay memo's
//     entries on disk under the same key (platform hashed losslessly), so
//     a warm re-run of an identical sweep does zero replays on top of
//     zero instrumented runs.
//
// The workloads, the replays and core.Study's variants (one transform
// per variant) are each a memo.Map: one fill per key, with the lock
// released while it runs; errors are memoized, and a panicking fill is
// recorded as a "... panicked" error before the panic is re-raised.
//
// Workloads and replays live as long as the Runner; variants do not. A
// run counts its points per variant into a tally shared by every in-
// flight run, each point job gives its count back when it ends (a point
// that never ran, when its run returns), and a variant whose tally
// reaches zero is released from its study. So a variant lives until no
// in-flight run has a pending point that replays it, and a later run
// transforms only on a replay miss, without tracing or replaying anything
// twice: Workload.Replay keys a replay by the variant's name, not its
// records, and builds the variant only when neither the memo nor the
// store holds the replay.
// Runner.Retain adds one count per variant of a grid until its caller
// lets go: a campaign worker retains its grid for its lifetime, so its
// leases, each a run of a few points, transform each variant once. The
// experiment Suite replays through Workload.Replay, never a run, so it
// releases nothing.
//
// Both persistent layers are accelerators, never correctness
// dependencies: corrupt or truncated entries warn, miss, and are
// recomputed and rewritten; writes are atomic and best-effort.
//
// Runner.Stats reports counters (traces run, cache hits, replays run,
// memo hits, store hits) so callers and tests can assert the avoided
// work.
//
// # Sharding and merging
//
// A Shard (k of N) deterministically owns a subset of point indices: the
// assignment hashes only the index, so every process expanding the same
// grid agrees on the split with no coordination. A sharded run writes a
// ShardFile — results plus a sweep Signature and the total point count —
// and Merge recombines shard files, verifying signature agreement and
// exactly-once coverage, into the unsharded point order. Rendering merged
// results through Write yields byte-identical output to an unsharded run,
// which makes sweep campaigns splittable across machines and CI jobs.
package sweep
