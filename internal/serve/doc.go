// Package serve is the sweep-as-a-service layer: an HTTP/JSON front end
// over the sweep engine that turns the one-shot CLI pipeline into a
// long-lived daemon with a shared warm cache.
//
// A Server accepts sweep grids over POST /sweeps — the same declarative
// axes as `overlapsim sweep`, as a JSON document — and streams the results
// back over the same connection. The response body is produced by the
// sweep package's OrderedSink, so rows arrive incrementally in grid order
// as the finished prefix grows, and a completed response is byte-for-byte
// identical to the batch CLI output for the same grid. With a results
// directory configured, the bytes the client received are also copied
// into a server-side file. The copy is best-effort: the first file error
// is logged once and the file abandoned, and only a connection error
// fails the job.
//
// Every request's runner shares the server's single TraceCache and
// replaystore.Store. That sharing is the point of running a daemon: the
// first request for a workload pays the instrumented run and its replays;
// repeat requests — identical grids, or any grid overlapping previously
// replayed (workload, variant, platform) points — are answered from disk
// with zero instrumented runs and zero replays, visible in each job's
// `work` counters and the aggregate GET /stats document.
//
// Admission control bounds the daemon: at most MaxConcurrent sweeps run
// at once, at most MaxQueued wait, and requests beyond both are shed with
// 429 so overload never degrades sweeps already in flight. Jobs are
// addressable while they run: GET /sweeps/{id} reports live progress,
// DELETE /sweeps/{id} cancels through the same context-cancellation path
// the CLI's SIGINT uses, leaving a well-formed partial body.
//
// The wire contract is documented in docs/API.md; operational guidance
// (flags, cache layout, admission tuning) in docs/OPERATIONS.md.
package serve
