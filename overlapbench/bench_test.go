package main

import (
	"context"
	"io"
	"testing"
)

// The benchmark's own tests run every workload at tiny scale against
// references computed here through the batch path.

// tinyOptions returns options for one quick run of a workload: one set-up
// and a zero-length window, so exactly one unit of work is measured.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	const variant = 3
	ref, err := computeRef(workload, variant, scaleTiny, 16)
	if err != nil {
		t.Fatalf("%s reference: %v", workload, err)
	}
	return options{
		workload:  workload,
		seed:      variant,
		trace:     trace,
		scale:     scaleTiny,
		setupReps: 1,
		outDir:    t.TempDir(),
		tmpDir:    t.TempDir(),
		ref:       &ref,
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyOptions(t, w, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.name)
				case got.Unit != m.unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w, trace, m.name, got.Unit, m.unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, m.name, got.Value)
				}
			}
		}
	}
}

// TestWrappersPassThrough checks that the timing wrappers change no
// output: a unit run with a recorder produces the same bytes as one
// without, and both match the batch encoding.
func TestWrappersPassThrough(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadNames {
		o := tinyOptions(t, w, false)
		e := &env{seed: o.seed, variant: variantOf(o.seed), scale: scaleTiny, tmp: o.tmpDir, ref: o.ref}
		wl, err := newWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := wl.setup(e); err != nil {
			t.Fatalf("%s set-up: %v", w, err)
		}
		if sw, ok := wl.(*serveWorkload); ok {
			// Rounds differ in their novel grids; compare one request both ways.
			_, plain := sw.srv.post(ctx, sw.pool[0], nil, -1, "")
			rec := newRecorder()
			_, traced := sw.srv.post(ctx, sw.pool[0], rec, -1, "r")
			if plain != traced || plain != e.ref.Pool[0] {
				t.Errorf("serve-mixed: body %s untraced, %s traced, batch encoding %s", plain, traced, e.ref.Pool[0])
			}
			if len(rec.snapshot()) == 0 {
				t.Errorf("serve-mixed: traced request recorded no spans")
			}
		}
		plain, err := wl.unit(ctx, nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		rec := newRecorder()
		traced, err := wl.unit(ctx, rec, rec.start("unit", -1, ""))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(plain.errs)+len(traced.errs)+len(e.setupErrs) > 0 {
			t.Errorf("%s: output mismatches: %v %v %v", w, plain.errs, traced.errs, e.setupErrs)
		}
		if len(rec.snapshot()) < 2 {
			t.Errorf("%s: traced unit recorded no spans", w)
		}
		if _, ok := wl.(*serveWorkload); !ok && plain.digests[0] != traced.digests[0] {
			t.Errorf("%s: output %s untraced, %s traced", w, plain.digests[0], traced.digests[0])
		}
		wl.close()
	}
}

// TestCountersRepeat checks that the traced run's work counts repeat
// exactly across two runs with the same seed.
func TestCountersRepeat(t *testing.T) {
	counts := []string{
		"tracer.runs", "overlap.transforms", "replay.runs", "replay.batched", "replay.des_steps",
		"replay.parallel_windows", "sweep.memo_hits", "surrogate.predicted", "surrogate.spot_checks",
		"surrogate.demoted", "tracecache.hits", "replaystore.hits", "replaystore.writes",
		"sink.bytes", "campaign.chunks", "campaign.leases", "trace.spans",
	}
	for _, w := range workloadNames {
		var first result
		for i := 0; i < 2; i++ {
			res, err := run(tinyOptions(t, w, true), io.Discard)
			if err != nil {
				t.Fatalf("%s run %d: %v", w, i, err)
			}
			if i == 0 {
				first = res
				continue
			}
			for _, c := range counts {
				if a, b := first.Metrics[c].Value, res.Metrics[c].Value; a != b {
					t.Errorf("%s: %s = %g then %g", w, c, a, b)
				}
			}
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p, beyond := tail(xs); p != 95 || v != 190 || beyond != 10 {
		t.Errorf("tail of 1..200 = %g at p%g with %d beyond, want 190 at p95 with 10", v, p, beyond)
	}
	if v, p, beyond := tail(xs[:5]); p != 75 || v != 4 || beyond != 1 {
		t.Errorf("tail of 1..5 = %g at p%g with %d beyond, want the lowest rung, 4 at p75 with 1", v, p, beyond)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 50, Parent: 0},
		{Name: "b", Start: 30, End: 70, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
	}
	self := selfTimes(spans)
	if self[0] != 30 || self[1] != 40 || self[2] != 40 {
		t.Errorf("self times %v, want root 30 (100 minus the union 10-70 and 90-100), a 40, b 40", self)
	}
}
