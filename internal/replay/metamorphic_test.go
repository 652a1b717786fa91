package replay

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracegen"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// Metamorphic properties of the replay model that need no oracle: they
// relate two replays of the same engine to each other. Each runs over
// every tracegen pattern at 16 ranks (enough for the parallel engine to
// engage) and the paper applications at one iteration, original and
// overlapped, through Simulate and SimulatePar(…, 4).

// metamorphicSets traces every workload once per process and returns its
// original set and one overlapped variant.
var metamorphicSets = sync.OnceValues(func() ([]*trace.Set, error) {
	var names []string
	for i, p := range tracegen.PatternNames() {
		names = append(names, fmt.Sprintf(
			"gen:%s,ranks=16,iters=3,msg=8192,msgdist=bimodal,comp=20000,compdist=uniform,imb=1.5,jit=0.2,deg=4,seed=%d", p, i+1))
	}
	names = append(names, apps.PaperApps()...)
	var out []*trace.Set
	for _, name := range names {
		app, err := apps.New(name, apps.Config{Iterations: 1})
		if err != nil {
			return nil, err
		}
		ps, err := tracer.Trace(app, tracer.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ov, err := overlap.Transform(ps, overlap.Options{
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ps.Original.Name, ov.Name = name, name
		out = append(out, ps.Original, ov)
	}
	return out, nil
})

// metamorphicEngines are the two entry points every property must hold
// through.
var metamorphicEngines = []struct {
	name string
	run  func(*trace.Set, machine.Config) (*Result, error)
}{
	{"seq", Simulate},
	{"par4", func(ts *trace.Set, cfg machine.Config) (*Result, error) { return SimulatePar(ts, cfg, 4) }},
}

// finishes returns every rank's finish time of a replay.
func finishes(res *Result) []units.Time {
	var out []units.Time
	for _, r := range res.Ranks() {
		out = append(out, r.Finish)
	}
	return out
}

// wholeNanoPlatform is a platform on which every duration the model
// computes is a whole number of nanoseconds, also after time scaling by
// 2, 4, 5 or 10: one instruction and one byte each take 1 ns, and the
// latencies and overhead are whole nanoseconds.
func wholeNanoPlatform(contended bool) machine.Config {
	c := machine.Default()
	c.MIPS = 1000
	c.Bandwidth = 1e9
	c.LocalBandwidth = 1e9
	c.Latency = 3 * units.Microsecond
	c.LocalLatency = 700
	c.CPUOverhead = 150
	if contended {
		c.Name, c.RanksPerNode, c.Buses, c.InLinks, c.OutLinks = "contended", 2, 2, 1, 1
	} else {
		c.Name, c.RanksPerNode, c.Buses, c.InLinks, c.OutLinks = "free", 1, 0, 0, 0
	}
	return c
}

// slowedBy returns c with every rate divided and every delay multiplied
// by k, so each duration the model computes is exactly k times longer.
func slowedBy(c machine.Config, k int) machine.Config {
	c.MIPS /= units.MIPS(k)
	c.Bandwidth /= units.Bandwidth(k)
	c.LocalBandwidth /= units.Bandwidth(k)
	c.Latency *= units.Duration(k)
	c.LocalLatency *= units.Duration(k)
	c.CPUOverhead *= units.Duration(k)
	return c
}

// TestTimeScaling: slowing every rate and delay of the platform by k
// slows the whole replay by exactly k — the total and every rank's
// finish. No rounding allowance is needed: every duration is a whole
// number of nanoseconds on both platforms.
func TestTimeScaling(t *testing.T) {
	sets, err := metamorphicSets()
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range sets {
		for _, contended := range []bool{false, true} {
			base := wholeNanoPlatform(contended)
			for _, eng := range metamorphicEngines {
				ref, err := eng.run(ts, base)
				if err != nil {
					t.Fatalf("%s/%s %s %s: %v", ts.Name, ts.Variant, base.Name, eng.name, err)
				}
				refFin := finishes(ref)
				for _, k := range []int{2, 4, 5, 10} {
					name := fmt.Sprintf("%s/%s %s %s k=%d", ts.Name, ts.Variant, base.Name, eng.name, k)
					res, err := eng.run(ts, slowedBy(base, k))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if want := ref.Total * units.Time(k); res.Total != want {
						t.Errorf("%s: total %d, want %d", name, res.Total, want)
					}
					for r, f := range finishes(res) {
						if want := refFin[r] * units.Time(k); f != want {
							t.Errorf("%s: rank %d finishes at %d, want %d", name, r, f, want)
							break
						}
					}
				}
			}
		}
	}
}

// relabeled returns ts with rank r renamed perm[r]: its records move to
// trace perm[r] and every peer and root follows its rank.
func relabeled(ts *trace.Set, perm []int) *trace.Set {
	out := trace.NewSet(ts.Name, ts.Variant, ts.NRanks(), ts.MIPS)
	for r, tr := range ts.Traces {
		recs := append([]trace.Record(nil), tr.Records...)
		for i := range recs {
			switch recs[i].Kind {
			case trace.KindSend, trace.KindRecv, trace.KindISend, trace.KindIRecv:
				recs[i].Peer = perm[recs[i].Peer]
			case trace.KindCollective:
				recs[i].Root = perm[recs[i].Root]
			}
		}
		out.Traces[perm[r]].Records = recs
	}
	return out
}

// TestRankRelabeling: on a contention-free platform with one rank per
// node nothing distinguishes ranks but their traces, so renaming the
// ranks by a permutation leaves the total unchanged and permutes the
// per-rank finish times with the labels.
func TestRankRelabeling(t *testing.T) {
	sets, err := metamorphicSets()
	if err != nil {
		t.Fatal(err)
	}
	cfg := wholeNanoPlatform(false)
	for i, ts := range sets {
		perm := rand.New(rand.NewSource(int64(i + 1))).Perm(ts.NRanks())
		moved := relabeled(ts, perm)
		for _, eng := range metamorphicEngines {
			name := fmt.Sprintf("%s/%s %s", ts.Name, ts.Variant, eng.name)
			ref, err := eng.run(ts, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			res, err := eng.run(moved, cfg)
			if err != nil {
				t.Fatalf("%s relabeled: %v", name, err)
			}
			if res.Total != ref.Total {
				t.Errorf("%s: relabeled total %d, want %d", name, res.Total, ref.Total)
			}
			refFin, fin := finishes(ref), finishes(res)
			for r := range refFin {
				if fin[perm[r]] != refFin[r] {
					t.Errorf("%s: rank %d (now %d) finishes at %d, want %d", name, r, perm[r], fin[perm[r]], refFin[r])
					break
				}
			}
		}
	}
}
