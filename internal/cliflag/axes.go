package cliflag

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

// listFlag is a repeatable, comma-splittable string-list flag: passing
// "-bws 64MB/s,256MB/s" and "-bws 64MB/s -bws 256MB/s" build the same
// axis. Empty elements are dropped, so trailing commas are harmless.
type listFlag struct{ items []string }

func (l *listFlag) String() string { return strings.Join(l.items, ",") }

func (l *listFlag) Set(s string) error {
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			l.items = append(l.items, item)
		}
	}
	return nil
}

// SweepAxes collects the grid-axis flags of the sweep subcommand: the
// app-side axes (apps, ranks, bandwidths, chunks, mechanisms, patterns)
// and the platform axes (latencies, bus counts, ranks-per-node, eager
// thresholds, collective models). Every flag is repeatable and accepts
// comma-separated values. Grid() parses the collected values into a
// sweep.Grid.
type SweepAxes struct {
	apps, ranks, bws, chunks, mechs, patterns       listFlag
	latencies, buscounts, rpns, eagers, collectives listFlag
	gen                                             genAxes
}

// RegisterSweepAxes adds the grid-axis flags to fs.
func RegisterSweepAxes(fs *flag.FlagSet) *SweepAxes {
	a := &SweepAxes{}
	registerGenAxes(fs, &a.gen)
	fs.Var(&a.apps, "apps", "applications to sweep, comma-separated or repeated (required; see overlapsim list)")
	fs.Var(&a.ranks, "ranks", "rank-count axis (0 or empty = app default)")
	fs.Var(&a.bws, "bws", "bandwidth axis (e.g. 64MB/s,256MB/s,1GB/s); empty = base platform bandwidth")
	fs.Var(&a.chunks, "chunks", "chunk-granularity axis (empty = 8)")
	fs.Var(&a.mechs, "mechs", "mechanism axis: none, earlysend, laterecv, both, prepost combos with + (empty = both)")
	fs.Var(&a.patterns, "patterns", "pattern axis: real, linear (empty = linear)")
	fs.Var(&a.latencies, "latencies", "latency axis (e.g. 5us,20us,100us); empty = base platform latency; replay-only")
	fs.Var(&a.buscounts, "buscounts", "bus-count axis (0 = no contention); empty = base platform buses; replay-only")
	fs.Var(&a.rpns, "rpns", "ranks-per-node axis (SMP placement; nodes resize to fit the traced ranks); empty = base placement; replay-only")
	fs.Var(&a.eagers, "eagers", "eager-threshold axis (e.g. 0,32KB,1MB; 0 = every message rendezvous, all = every message eager); empty = base threshold; replay-only")
	fs.Var(&a.collectives, "colls", "collective-model axis: log, linear; empty = base model; replay-only")
	return a
}

// Grid parses the collected axis values into a sweep grid. It reports the
// first malformed element with its flag name; grid-level validation
// (unknown apps, out-of-range values) stays with sweep.Grid.Validate.
func (a *SweepAxes) Grid() (sweep.Grid, error) {
	var g sweep.Grid
	var err error
	g.Apps = a.apps.items
	// Synthetic workloads join the app axis as canonical "gen:..." names,
	// so cache keys, signatures and shard envelopes extend losslessly.
	gen, err := a.gen.specs()
	if err != nil {
		return g, err
	}
	g.Apps = append(g.Apps[:len(g.Apps):len(g.Apps)], gen...)
	if g.Ranks, err = parseFlagList(a.ranks.items, "ranks", nil, strconv.Atoi); err != nil {
		return g, err
	}
	if g.Bandwidths, err = ParseList(a.bws.items, "bad -bws element", units.ParseBandwidth); err != nil {
		return g, err
	}
	if g.Chunks, err = parseFlagList(a.chunks.items, "chunks", nil, strconv.Atoi); err != nil {
		return g, err
	}
	if g.Mechanisms, err = ParseMechanisms(a.mechs.items); err != nil {
		return g, err
	}
	if g.Patterns, err = ParsePatterns(a.patterns.items); err != nil {
		return g, err
	}
	if g.Latencies, err = ParseList(a.latencies.items, "bad -latencies element", units.ParseDuration); err != nil {
		return g, err
	}
	if g.Buses, err = parseFlagList(a.buscounts.items, "buscounts", nil, strconv.Atoi); err != nil {
		return g, err
	}
	if g.RanksPerNode, err = parseFlagList(a.rpns.items, "rpns", nil, strconv.Atoi); err != nil {
		return g, err
	}
	if g.EagerThresholds, err = ParseEagerThresholds(a.eagers.items); err != nil {
		return g, err
	}
	if g.Collectives, err = ParseCollectives(a.collectives.items); err != nil {
		return g, err
	}
	return g, nil
}

// parseFlagList parses one comma-list flag, labelling a malformed element
// with the flag name and the element; an empty list takes def (which may
// be nil).
func parseFlagList[T any](items []string, name string, def []string, parse func(string) (T, error)) ([]T, error) {
	if len(items) == 0 {
		items = def
	}
	var out []T
	for _, item := range items {
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("bad -%s element %q: %w", name, item, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseList parses one unit-carrying axis element by element, prefixing
// a malformed element's error with label: "bad -bws element" for a flag,
// the JSON field name for the serve API.
func ParseList[T any](items []string, label string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range items {
		v, err := parse(item)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseEagerThresholds parses eager-threshold axis values as the -eagers
// flag (and the serve API's eager_thresholds field) accepts them. Besides
// byte sizes it accepts "all": every message eager, the machine model's
// negative-threshold convention, which units.ParseBytes cannot express.
func ParseEagerThresholds(items []string) ([]units.Bytes, error) {
	var out []units.Bytes
	for _, item := range items {
		if item == "all" {
			out = append(out, -1)
			continue
		}
		b, err := units.ParseBytes(item)
		if err != nil {
			return nil, fmt.Errorf("bad eager-threshold value: %w", err)
		}
		out = append(out, b)
	}
	return out, nil
}

// ParseMechanisms parses mechanism-set names as the -mechs flag accepts
// them: none, earlysend, laterecv, both, prepost, and + combinations.
func ParseMechanisms(items []string) ([]overlap.Mechanism, error) {
	var out []overlap.Mechanism
	for _, item := range items {
		var m overlap.Mechanism
		for _, part := range strings.Split(item, "+") {
			switch strings.TrimSpace(part) {
			case "none", "":
				// no bits
			case "earlysend":
				m |= overlap.EarlySend
			case "laterecv":
				m |= overlap.LateRecv
			case "both":
				m |= overlap.BothMechanisms
			case "prepost":
				m |= overlap.PrepostRecv
			default:
				return nil, fmt.Errorf("bad -mechs element %q (want none, earlysend, laterecv, both, prepost, or + combos)", item)
			}
		}
		out = append(out, m)
	}
	return out, nil
}

// ParsePatterns parses pattern names as the -patterns flag accepts them.
func ParsePatterns(items []string) ([]overlap.Pattern, error) {
	var out []overlap.Pattern
	for _, item := range items {
		switch item {
		case "real":
			out = append(out, overlap.PatternReal)
		case "linear":
			out = append(out, overlap.PatternLinear)
		default:
			return nil, fmt.Errorf("bad -patterns element %q (want real or linear)", item)
		}
	}
	return out, nil
}

// ParseCollectives parses collective-model names as the -colls flag
// accepts them.
func ParseCollectives(items []string) ([]machine.CollectiveModel, error) {
	var out []machine.CollectiveModel
	for _, item := range items {
		cm, err := machine.ParseCollectiveModel(item)
		if err != nil {
			return nil, fmt.Errorf("bad -colls element: %w", err)
		}
		out = append(out, cm)
	}
	return out, nil
}
