package sweep

import (
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
)

// This file implements batched warm-Replayer execution for platform-axis
// grids. A sweep along platform axes replays the same trace set once per
// platform; run naively, every one of those replays pays trace validation,
// record attachment and result assembly again. The prefill pass below
// detects groups of points that share a workload and trace variant but
// differ in platform, and pushes all their missing replays through one
// warm replay.SimulateBatch loop before the workers start. Points then
// find their memo entries prefilled; everything else about the run —
// results, caching semantics, counter totals — is unchanged.

// batchKey groups expanded points that replay the same trace sets: same
// workload (app, ranks, chunks) and same overlap transformation. Within a
// group only the platform (bandwidth + overlay) varies.
type batchKey struct {
	pipe pipeKey
	opts overlap.Options
}

// prefill routes the platform-axis replay work of the expanded points at
// the given indices through the batch path, skipping the points in
// resolved (the surrogate planner's results): the prefill would otherwise
// warm exactly the platforms the planner just avoided. It is best-effort
// by design: any error (tracing, transformation, a batch point) simply
// leaves the affected memo entries unfilled, and the normal per-point path
// rediscovers and reports the error with full context.
func (r *Runner) prefill(pts []Point, indices []int, resolved map[int]Result) {
	if r.DisableBatch {
		return
	}
	groups := map[batchKey][]Point{}
	var order []batchKey // deterministic group order (first appearance)
	for _, i := range indices {
		if _, ok := resolved[i]; ok {
			continue
		}
		p := pts[i]
		if p.Chunks == 0 {
			p.Chunks = DefaultChunks
		}
		k := batchKey{
			pipe: pipeKey{app: p.App, ranks: p.Ranks, chunks: p.Chunks},
			opts: p.Options(),
		}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], p)
	}
	for _, k := range order {
		group := groups[k]
		if len(group) < 2 {
			continue // a single point gains nothing from batching
		}
		r.prefillGroup(k, group)
	}
}

// prefillGroup batches one workload-variant group: trace (or load) the
// workload once, build its two trace sets, and batch-replay every platform
// in the group that neither the memo nor the persistent store has yet.
func (r *Runner) prefillGroup(k batchKey, group []Point) {
	ps, err := r.profiled(k.pipe)
	if err != nil {
		return
	}
	nranks := ps.Original.NRanks()
	// Distinct platforms in first-appearance order: duplicates collapse to
	// one batch point exactly as they collapse to one memo fill.
	var machines []machine.Config
	seen := map[machine.Config]bool{}
	for _, p := range group {
		m := r.machineFor(p, nranks)
		key := m
		key.Name = ""
		if !seen[key] {
			seen[key] = true
			machines = append(machines, m)
		}
	}
	if len(machines) < 2 {
		return
	}
	vts, err := r.pipelineFor(k.pipe).variants.Get(ps, k.opts)
	if err != nil {
		return
	}
	r.prefillSet(ps.Original, machines)
	if vts != ps.Original {
		r.prefillSet(vts, machines)
	}
}

// prefillSet batch-replays the trace set on every machine whose memo entry
// is missing (and not already in the persistent store), then installs the
// summaries as prefilled memo entries and writes them through to the store.
func (r *Runner) prefillSet(ts *trace.Set, machines []machine.Config) {
	var missing []machine.Config
	for _, m := range machines {
		key := memoKey{app: ts.Name, ranks: ts.NRanks(), variant: ts.Variant, platform: m}
		key.platform.Name = ""
		r.mu.Lock()
		_, have := r.memos[key]
		r.mu.Unlock()
		if have {
			continue
		}
		if r.Store != nil {
			sk := r.Store.Key(key.app, key.ranks, r.Size, r.Iters, key.variant, key.platform)
			if r.Store.Load(sk) != nil {
				continue // the fill path will take the store hit as usual
			}
		}
		missing = append(missing, m)
	}
	if len(missing) < 2 {
		return // leave a lone fill to the normal path
	}
	out := make([]replay.Summary, len(missing))
	n, _ := replay.SimulateBatch(ts, missing, out, r.ReplayPar)
	// On error the completed prefix is still valid; the failing point's
	// entry stays unfilled so runPoint reports the error in context.
	for i := 0; i < n; i++ {
		m, sum := missing[i], out[i]
		r.ctReplays.Add(1)
		r.ctBatched.Add(1)
		r.ctWindows.Add(sum.Windows)
		blocked := sum.Blocked
		key := memoKey{app: ts.Name, ranks: ts.NRanks(), variant: ts.Variant, platform: m}
		key.platform.Name = ""
		e := &memoEntry{total: sum.Total, steps: sum.Steps, blocked: blocked, prefilled: true}
		e.once.Do(func() {})
		r.mu.Lock()
		if r.memos == nil {
			r.memos = map[memoKey]*memoEntry{}
		}
		if _, have := r.memos[key]; !have {
			r.memos[key] = e
		}
		r.mu.Unlock()
		if r.Store != nil {
			sk := r.Store.Key(key.app, key.ranks, r.Size, r.Iters, key.variant, key.platform)
			r.noteStoreErr(r.Store.Store(sk, replaystore.Result{Total: sum.Total, Steps: sum.Steps, Blocked: blocked}))
		}
	}
}
