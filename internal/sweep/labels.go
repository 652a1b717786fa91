package sweep

import "fmt"

// This file is the single place that labels point axes. Point.String and
// the result encoder's table, CSV and JSON rows all pull from here, so
// adding an axis means adding one entry — not chasing format strings
// through every format.

// ranksLabel renders the rank-count axis ("default" for the app default),
// shared by Point.String ("rdefault"/"r4") and the result encoder.
func ranksLabel(r int) string {
	if r == 0 {
		return "default"
	}
	return fmt.Sprint(r)
}

// overlayColumn describes one platform-overlay axis for every consumer
// that renders points: the Point.String suffix key, the table column
// header, the CSV header, and two renderings of the value — a human one
// with adaptive units (tables, labels, signatures) and an exact one with
// machine precision (CSV). Dynamic columns appear in encoded output only
// when the axis is actually swept, which keeps the output of grids without
// platform axes byte-identical to earlier releases.
type overlayColumn struct {
	label   string // Point.String suffix key, e.g. "L"
	head    string // table column header
	csvHead string // CSV column header
	set     func(Point) bool
	human   func(Point) string
	exact   func(Point) string
}

// baseLabel is what a dynamic column shows for a point that does not set
// the axis (possible only in hand-built result sets; one grid's points set
// an axis either all or not at all).
const baseLabel = "base"

var overlayColumns = []overlayColumn{
	{
		label: "L", head: "latency", csvHead: "latency_ns",
		set:   func(p Point) bool { return p.Platform.LatencySet },
		human: func(p Point) string { return p.Platform.Latency.String() },
		exact: func(p Point) string { return fmt.Sprint(int64(p.Platform.Latency)) },
	},
	{
		label: "buses", head: "buses", csvHead: "buses",
		set:   func(p Point) bool { return p.Platform.BusesSet },
		human: func(p Point) string { return fmt.Sprint(p.Platform.Buses) },
		exact: func(p Point) string { return fmt.Sprint(p.Platform.Buses) },
	},
	{
		label: "rpn", head: "rpn", csvHead: "ranks_per_node",
		set:   func(p Point) bool { return p.Platform.RanksPerNodeSet },
		human: func(p Point) string { return fmt.Sprint(p.Platform.RanksPerNode) },
		exact: func(p Point) string { return fmt.Sprint(p.Platform.RanksPerNode) },
	},
	{
		label: "eager", head: "eager", csvHead: "eager_threshold_bytes",
		set:   func(p Point) bool { return p.Platform.EagerSet },
		human: func(p Point) string { return p.Platform.EagerThreshold.String() },
		exact: func(p Point) string { return fmt.Sprint(int64(p.Platform.EagerThreshold)) },
	},
	{
		label: "coll", head: "collective", csvHead: "collective",
		set:   func(p Point) bool { return p.Platform.CollectiveSet },
		human: func(p Point) string { return p.Platform.Collective.String() },
		exact: func(p Point) string { return p.Platform.Collective.String() },
	},
}

// activeOverlayColumns returns the overlay columns that at least one of
// the n points sweeps: the dynamic columns an encoding renders. A batch
// write reads the points from its results; a streaming sink reads them
// from the grid expansion, since it commits its header before any result
// exists. A result carries its point verbatim, so both agree.
func activeOverlayColumns(n int, point func(i int) Point) []overlayColumn {
	var active []overlayColumn
	for _, c := range overlayColumns {
		for i := 0; i < n; i++ {
			if c.set(point(i)) {
				active = append(active, c)
				break
			}
		}
	}
	return active
}
