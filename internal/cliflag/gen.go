package cliflag

import (
	"flag"
	"fmt"
	"strconv"

	"overlapsim/internal/tracegen"
	"overlapsim/internal/units"
)

// genAxes collects the synthetic-workload axis flags (-gen-*). Each flag
// is one dimension of a tracegen spec; their cross product expands into
// canonical "gen:..." spec strings that join the grid's app list, so
// workload *shape* sweeps exactly like a platform axis. Rank counts and
// iterations come from the ordinary -ranks / -iters flags, which apply to
// generated apps like any other.
type genAxes struct {
	patterns, msgs, msgdists, comps, compdists listFlag
	imbs, jits, degs, seeds                    listFlag
}

func registerGenAxes(fs *flag.FlagSet, a *genAxes) {
	fs.Var(&a.patterns, "gen-patterns", "synthetic workload pattern axis: ring, stencil2d, alltoall, masterworker, randomsparse (default ring when other -gen-* flags are set)")
	fs.Var(&a.msgs, "gen-msgs", "synthetic base message-size axis (e.g. 4KB,64KB; default 4096)")
	fs.Var(&a.msgdists, "gen-msg-dists", "synthetic message-size distribution axis: fixed, uniform, bimodal (default fixed)")
	fs.Var(&a.comps, "gen-computes", "synthetic compute-burst axis in instructions (default 20000)")
	fs.Var(&a.compdists, "gen-comp-dists", "synthetic compute-burst distribution axis: fixed, uniform, bimodal (default fixed)")
	fs.Var(&a.imbs, "gen-imbalances", "synthetic per-rank imbalance-factor axis (1 = balanced; default 1)")
	fs.Var(&a.jits, "gen-jitters", "synthetic burst-jitter axis in [0,1] (default 0)")
	fs.Var(&a.degs, "gen-degrees", "synthetic randomsparse expected out-degree axis (default 3)")
	fs.Var(&a.seeds, "gen-seeds", "synthetic workload seed axis (default 1)")
}

// empty reports whether no -gen-* flag was used at all.
func (a *genAxes) empty() bool {
	return len(a.patterns.items)+len(a.msgs.items)+len(a.msgdists.items)+
		len(a.comps.items)+len(a.compdists.items)+len(a.imbs.items)+
		len(a.jits.items)+len(a.degs.items)+len(a.seeds.items) == 0
}

// specs expands the collected gen axes into canonical tracegen spec
// strings: the full cross product in a fixed nesting order (pattern, msg,
// msgdist, comp, compdist, imbalance, jitter, degree, seed), every unset
// dimension taking the tracegen default. Returns nil when no gen flag was
// used.
func (a *genAxes) specs() ([]string, error) {
	if a.empty() {
		return nil, nil
	}
	pats, err := parseFlagList(a.patterns.items, "gen-patterns", []string{"ring"}, tracegen.ParsePattern)
	if err != nil {
		return nil, err
	}
	msgs, err := parseFlagList(a.msgs.items, "gen-msgs", nil, units.ParseBytes)
	if err != nil {
		return nil, err
	}
	msgDists, err := parseFlagList(a.msgdists.items, "gen-msg-dists", nil, tracegen.ParseDist)
	if err != nil {
		return nil, err
	}
	comps, err := parseFlagList(a.comps.items, "gen-computes", nil, func(s string) (int64, error) {
		return strconv.ParseInt(s, 10, 64)
	})
	if err != nil {
		return nil, err
	}
	compDists, err := parseFlagList(a.compdists.items, "gen-comp-dists", nil, tracegen.ParseDist)
	if err != nil {
		return nil, err
	}
	imbs, err := parseFlagList(a.imbs.items, "gen-imbalances", nil, parseFloat)
	if err != nil {
		return nil, err
	}
	jits, err := parseFlagList(a.jits.items, "gen-jitters", nil, parseFloat)
	if err != nil {
		return nil, err
	}
	degs, err := parseFlagList(a.degs.items, "gen-degrees", nil, strconv.Atoi)
	if err != nil {
		return nil, err
	}
	seeds, err := parseFlagList(a.seeds.items, "gen-seeds", nil, func(s string) (uint64, error) {
		return strconv.ParseUint(s, 10, 64)
	})
	if err != nil {
		return nil, err
	}

	var out []string
	for _, pat := range pats {
		base := tracegen.DefaultSpec(pat)
		for _, sp := range crossGen(base, msgs, msgDists, comps, compDists, imbs, jits, degs, seeds) {
			if err := sp.Validate(); err != nil {
				return nil, fmt.Errorf("bad -gen-* combination %s: %w", sp, err)
			}
			out = append(out, sp.String())
		}
	}
	return out, nil
}

// crossGen builds the spec cross product over the non-pattern dimensions.
// A nil dimension contributes only the base spec's value.
func crossGen(base tracegen.Spec,
	msgs []units.Bytes, msgDists []tracegen.Dist,
	comps []int64, compDists []tracegen.Dist,
	imbs, jits []float64, degs []int, seeds []uint64) []tracegen.Spec {
	specs := []tracegen.Spec{base}
	specs = expandGen(specs, msgs, func(s *tracegen.Spec, v units.Bytes) { s.MsgBytes = v })
	specs = expandGen(specs, msgDists, func(s *tracegen.Spec, v tracegen.Dist) { s.MsgDist = v })
	specs = expandGen(specs, comps, func(s *tracegen.Spec, v int64) { s.Compute = v })
	specs = expandGen(specs, compDists, func(s *tracegen.Spec, v tracegen.Dist) { s.CompDist = v })
	specs = expandGen(specs, imbs, func(s *tracegen.Spec, v float64) { s.Imbalance = v })
	specs = expandGen(specs, jits, func(s *tracegen.Spec, v float64) { s.Jitter = v })
	specs = expandGen(specs, degs, func(s *tracegen.Spec, v int) { s.Degree = v })
	specs = expandGen(specs, seeds, func(s *tracegen.Spec, v uint64) { s.Seed = v })
	return specs
}

// expandGen multiplies the running spec list by one dimension, preserving
// the stable nesting order.
func expandGen[T any](specs []tracegen.Spec, vals []T, set func(*tracegen.Spec, T)) []tracegen.Spec {
	if len(vals) == 0 {
		return specs
	}
	out := make([]tracegen.Spec, 0, len(specs)*len(vals))
	for _, s := range specs {
		for _, v := range vals {
			c := s
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
