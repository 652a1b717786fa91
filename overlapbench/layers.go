package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/replay"
	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// The layer pass feeds a unit's own inputs through each layer's exported
// entry point, one call per span, serially: the instrumented run
// (tracer.Trace), trace validation, the overlap transform, replay (batched
// over each trace set's platforms the way the runner's prefill groups
// them, single points through SimulatePar), the trace cache and replay
// store round trips, and the shard merge. Spans inside the program are
// not recorded; this pass is how per-layer host time is measured from the
// outside.

// layerOut carries the pass's work counts and, per input, the merged
// results.
type layerOut struct {
	transforms int
	replays    int
	steps      int64
	merged     [][]sweep.Result
}

type pipeKey struct {
	app           string
	ranks, chunks int
}

type setKey struct {
	app, variant string
	ranks        int
}

// machineFor resolves a point's platform the way sweep.Runner does.
func machineFor(base machine.Config, p sweep.Point, nranks int) machine.Config {
	m := base
	if m.Nodes == 0 {
		m = machine.Default()
	}
	if p.Bandwidth >= 0 {
		m = m.WithBandwidth(p.Bandwidth)
	}
	m = p.Platform.Apply(m)
	if p.Platform.RanksPerNodeSet {
		m = m.WithNodes(nranks)
	}
	return m
}

// replayed is one replay's outcome in the pass.
type replayed struct {
	total   units.Time
	steps   int64
	blocked float64
}

func layerPass(rec *recorder, root int, ins []input, tmp string) (layerOut, error) {
	var lo layerOut
	dir, err := os.MkdirTemp(tmp, "layer-cache-")
	if err != nil {
		return lo, err
	}
	defer os.RemoveAll(dir)
	cache := &sweep.TraceCache{Dir: dir}
	store := &replaystore.Store{Dir: dir}
	call := func(name, id string, fn func() error) error {
		h := rec.start(name, root, id)
		err := fn()
		rec.stop(h)
		if err != nil {
			return fmt.Errorf("%s %s: %w", name, id, err)
		}
		return nil
	}

	for n, in := range ins {
		g, err := in.grid()
		if err != nil {
			return lo, err
		}
		size, iters := in.Req.Size, in.Req.Iters
		pts := g.Expand()
		for i := range pts {
			if pts[i].Chunks == 0 {
				pts[i].Chunks = sweep.DefaultChunks
			}
		}

		// Instrumented runs, one per distinct workload, with validation and
		// the trace cache round trip.
		sets := map[pipeKey]*overlap.ProfiledSet{}
		for _, p := range pts {
			k := pipeKey{p.App, p.Ranks, p.Chunks}
			if sets[k] != nil {
				continue
			}
			app, err := apps.New(k.app, apps.Config{Ranks: k.ranks, Size: size, Iterations: iters})
			if err != nil {
				return lo, err
			}
			var ps *overlap.ProfiledSet
			if err := call("tracer.trace", k.app, func() (err error) {
				ps, err = tracer.Trace(app, tracer.Options{Chunks: k.chunks})
				return err
			}); err != nil {
				return lo, err
			}
			sets[k] = ps
			if err := call("trace.validate", k.app, func() error { return trace.Validate(ps.Original) }); err != nil {
				return lo, err
			}
			key := cache.Key(k.app, k.ranks, k.chunks, size, iters)
			if err := call("tracecache.store", key, func() error { return cache.Store(key, ps) }); err != nil {
				return lo, err
			}
			if err := call("tracecache.load", key, func() error {
				got, err := cache.Load(key)
				if err == nil && got == nil {
					err = fmt.Errorf("stored entry missed")
				}
				return err
			}); err != nil {
				return lo, err
			}
		}

		// Overlap transforms, one per distinct workload and options; the
		// original trace set is shared across the chunk axis, as in the
		// runner's replay memo.
		type varKey struct {
			pipe pipeKey
			opts overlap.Options
		}
		variants := map[varKey]*trace.Set{}
		traceSets := map[setKey]*trace.Set{}
		platforms := map[setKey][]machine.Config{}
		seen := map[setKey]map[machine.Config]bool{}
		var setOrder []setKey
		addPlatform := func(ts *trace.Set, m machine.Config) setKey {
			k := setKey{ts.Name, ts.Variant, ts.NRanks()}
			if traceSets[k] == nil {
				traceSets[k] = ts
				seen[k] = map[machine.Config]bool{}
				setOrder = append(setOrder, k)
			}
			key := m
			key.Name = ""
			if !seen[k][key] {
				seen[k][key] = true
				platforms[k] = append(platforms[k], m)
			}
			return k
		}
		type pointSets struct {
			orig, over setKey
			m          machine.Config
		}
		ptSets := make([]pointSets, len(pts))
		for i, p := range pts {
			pk := pipeKey{p.App, p.Ranks, p.Chunks}
			ps := sets[pk]
			vk := varKey{pk, p.Options()}
			vts := variants[vk]
			if vts == nil {
				if err := call("overlap.transform", p.App, func() (err error) {
					vts, err = overlap.Transform(ps, p.Options())
					return err
				}); err != nil {
					return lo, err
				}
				lo.transforms++
				variants[vk] = vts
				if err := call("trace.validate", p.App, func() error { return trace.Validate(vts) }); err != nil {
					return lo, err
				}
			}
			m := machineFor(in.Base, p, ps.Original.NRanks())
			ptSets[i] = pointSets{addPlatform(ps.Original, m), addPlatform(vts, m), m}
		}

		// Replays and the replay store round trip.
		results := map[setKey]map[machine.Config]replayed{}
		for _, k := range setOrder {
			ts, ms := traceSets[k], platforms[k]
			out := make(map[machine.Config]replayed, len(ms))
			results[k] = out
			if len(ms) >= 2 {
				sum := make([]replay.Summary, len(ms))
				if err := call("replay.batch", k.app, func() error {
					_, err := replay.SimulateBatch(ts, ms, sum, in.ReplayPar)
					return err
				}); err != nil {
					return lo, err
				}
				for i, m := range ms {
					m.Name = ""
					out[m] = replayed{sum[i].Total, sum[i].Steps, sum[i].Blocked}
				}
			} else {
				var res *replay.Result
				if err := call("replay.simulate", k.app, func() (err error) {
					res, err = replay.SimulatePar(ts, ms[0], in.ReplayPar)
					return err
				}); err != nil {
					return lo, err
				}
				m := ms[0]
				m.Name = ""
				out[m] = replayed{res.Total, res.Steps, res.MeanBlockedFraction()}
			}
			lo.replays += len(ms)
			for _, m := range ms {
				m.Name = ""
				r := out[m]
				lo.steps += r.steps
				key := store.Key(k.app, k.ranks, size, iters, k.variant, m)
				if err := call("replaystore.store", key, func() error {
					return store.Store(key, replaystore.Result{Total: r.total, Steps: r.steps, Blocked: r.blocked})
				}); err != nil {
					return lo, err
				}
				if err := call("replaystore.load", key, func() error {
					if store.Load(key) == nil {
						return fmt.Errorf("stored entry missed")
					}
					return nil
				}); err != nil {
					return lo, err
				}
			}
		}

		// The merge: the grid's results in campaign-sized shard envelopes,
		// merged back into grid order.
		res := make([]sweep.Result, len(pts))
		for i, p := range pts {
			ps := ptSets[i]
			m := ps.m
			m.Name = ""
			o, v := results[ps.orig][m], results[ps.over][m]
			res[i] = sweep.Result{Point: p, Bandwidth: ps.m.Bandwidth, TOriginal: o.total, TOverlap: v.total,
				Speedup: 1, Blocked: o.blocked, Steps: o.steps + v.steps}
			if v.total > 0 {
				res[i].Speedup = float64(o.total) / float64(v.total)
			}
		}
		sig := sweep.Signature(g, in.Base, size, iters)
		nshards := (len(pts) + 3) / 4
		var shards []*sweep.ShardFile
		for s := 0; s < nshards; s++ {
			shard := sweep.Shard{K: s + 1, N: nshards}
			idx := shard.Indices(len(pts))
			part := make([]sweep.Result, len(idx))
			for j, i := range idx {
				part[j] = res[i]
			}
			var buf bytes.Buffer
			if err := sweep.WriteShard(&buf, sig, len(pts), shard, idx, part); err != nil {
				return lo, err
			}
			sf, err := sweep.ReadShard(&buf)
			if err != nil {
				return lo, err
			}
			shards = append(shards, sf)
		}
		var merged []sweep.Result
		if err := call("sweep.merge", fmt.Sprintf("input-%d", n), func() (err error) {
			merged, err = sweep.Merge(shards)
			return err
		}); err != nil {
			return lo, err
		}
		lo.merged = append(lo.merged, merged)
	}
	return lo, nil
}

// agree checks the layer pass against the traced unit it re-ran, so the
// pass keeps measuring the work the program does: an exact input's merged
// results must encode to the unit's output, and an approx input's, which
// the pass replays in full, must equal the exact reference.
func agree(u unitOut, lo layerOut, ref *variantRef) ([]string, error) {
	var errs []string
	for i, in := range u.inputs {
		got := lo.merged[i]
		if in.approx() {
			if ref == nil {
				continue
			}
			if len(got) != len(ref.Exact) {
				errs = append(errs, fmt.Sprintf("layer pass input %d: %d results, exact reference has %d", i, len(got), len(ref.Exact)))
				continue
			}
			for j, x := range got {
				if want := ref.Exact[j]; int64(x.TOriginal) != want[0] || int64(x.TOverlap) != want[1] {
					errs = append(errs, fmt.Sprintf("layer pass input %d point %d: %d/%d, exact run gives %d/%d", i, j, x.TOriginal, x.TOverlap, want[0], want[1]))
					break
				}
			}
			continue
		}
		d, err := csvDigest(got, false)
		if err != nil {
			return errs, err
		}
		if d != u.digests[i] {
			errs = append(errs, fmt.Sprintf("layer pass input %d: output %s, the unit's %s", i, d, u.digests[i]))
		}
	}
	return errs, nil
}

// sinkPass replays each input on a warm cache through the ordered
// streaming sink a served request uses, so the sink layer is measured on
// serve traffic, whose sinks live inside the server.
func sinkPass(ctx context.Context, rec *recorder, root int, ins []input, cache string) (int64, error) {
	var bytes int64
	for i, in := range ins {
		g, err := in.grid()
		if err != nil {
			return bytes, err
		}
		dw := newDigestWriter()
		ts := &timedSink{inner: sweep.NewOrderedSink(dw, sweep.FormatCSV, g.Expand(), nil), rec: rec, parent: root, id: fmt.Sprintf("input-%d", i)}
		if err := cachedRunner(in, cache, 0).RunSinkContext(ctx, g, ts); err != nil {
			return bytes, err
		}
		if err := ts.Close(); err != nil {
			return bytes, err
		}
		bytes += dw.n
	}
	return bytes, nil
}

// probeInput is the slice of an input that the surface probes run: its
// first application over at most two values of each platform axis.
func probeInput(in input) input {
	p := in
	p.Req.Apps = p.Req.Apps[:1]
	if len(p.Req.Bandwidths) > 2 {
		p.Req.Bandwidths = p.Req.Bandwidths[:2]
	}
	if len(p.Req.Latencies) > 2 {
		p.Req.Latencies = p.Req.Latencies[:2]
	}
	return p
}

// probeOut is what the surface probes measured.
type probeOut struct {
	coldReq, warmReq float64 // ms
	camp             unitOut
}

// probeServe posts the probe slice to a fresh server twice, cold then
// warm, and leaves the warmed cache in dir.
func probeServe(ctx context.Context, rec *recorder, root int, in input, dir string) (probeOut, error) {
	var po probeOut
	h, err := startServer(dir)
	if err != nil {
		return po, err
	}
	defer h.close()
	for i, ms := range []*float64{&po.coldReq, &po.warmReq} {
		s, _ := h.post(ctx, in.Req, rec, root, fmt.Sprintf("probe-%d", i))
		if !s.ok {
			return po, fmt.Errorf("serve probe request %d failed", i)
		}
		*ms = float64(s.lat.Nanoseconds()) / 1e6
	}
	return po, nil
}

// probeCampaign runs the probe slice as a campaign over the warmed cache.
func probeCampaign(ctx context.Context, rec *recorder, root int, in input, cache, dir string) (unitOut, error) {
	g, err := in.grid()
	if err != nil {
		return unitOut{}, err
	}
	defer os.RemoveAll(dir)
	out, err := runCampaign(ctx, in, g, cache, dir, rec, root)
	if err == nil && len(out.errs) > 0 {
		err = fmt.Errorf("campaign probe: %s", out.errs[0])
	}
	return out, err
}
