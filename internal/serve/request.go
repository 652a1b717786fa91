package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"overlapsim/internal/cliflag"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

// SweepRequest is the JSON body of POST /sweeps: the declarative sweep
// grid plus scale and output options — the HTTP projection of the sweep
// subcommand's flags. Axis values that carry units (bandwidths, latencies,
// eager thresholds) are strings in the CLI's syntax ("256MB/s", "5us",
// "32KB", "all"), parsed by the same parsers, so a grid pastes between
// `overlapsim sweep` flags and a request body without translation. An
// omitted axis collapses to the same single default the CLI uses, and the
// resulting expansion order is the CLI's — which is what makes a served
// sweep's body byte-identical to the batch CLI run of the same grid.
type SweepRequest struct {
	// Apps names the applications to sweep (required).
	Apps []string `json:"apps"`
	// Ranks is the rank-count axis (0 or omitted = app default).
	Ranks []int `json:"ranks,omitempty"`
	// Bandwidths is the bandwidth axis, e.g. ["64MB/s","1GB/s"].
	Bandwidths []string `json:"bandwidths,omitempty"`
	// Chunks is the chunk-granularity axis (omitted = 8).
	Chunks []int `json:"chunks,omitempty"`
	// Mechanisms is the mechanism axis: "none", "earlysend", "laterecv",
	// "both", "prepost" and "+" combinations (omitted = both).
	Mechanisms []string `json:"mechanisms,omitempty"`
	// Patterns is the pattern axis: "real" or "linear" (omitted = linear).
	Patterns []string `json:"patterns,omitempty"`
	// Latencies is the latency platform axis, e.g. ["5us","50us"].
	Latencies []string `json:"latencies,omitempty"`
	// Buses is the bus-count platform axis (0 = no contention).
	Buses []int `json:"buses,omitempty"`
	// RanksPerNode is the SMP-placement platform axis.
	RanksPerNode []int `json:"ranks_per_node,omitempty"`
	// EagerThresholds is the eager/rendezvous platform axis, e.g.
	// ["0","32KB","all"].
	EagerThresholds []string `json:"eager_thresholds,omitempty"`
	// Collectives is the collective-model platform axis: "log", "linear".
	Collectives []string `json:"collectives,omitempty"`

	// Size and Iters scale every traced workload (0 = app default).
	Size  int `json:"size,omitempty"`
	Iters int `json:"iters,omitempty"`

	// Format selects the response encoding: "table", "csv" or "json"
	// (omitted = csv, the format machine clients want).
	Format string `json:"format,omitempty"`

	// Approx overrides the server's surrogate fast path default for this
	// job: true thins dense numeric axes to replayed anchors and
	// interpolates the rest (results carry an approx column), false forces
	// an exact run. Omitted inherits the daemon's -approx setting.
	Approx *bool `json:"approx,omitempty"`
	// ApproxMaxErr overrides the relative error bound for this job's
	// predictions (0 or omitted inherits the daemon's setting).
	ApproxMaxErr float64 `json:"approx_maxerr,omitempty"`
	// ApproxSpotCheck overrides the fraction of predicted points per
	// family spot-replayed by the error gate (0 or omitted inherits).
	ApproxSpotCheck float64 `json:"approx_spotcheck,omitempty"`
}

// ValidateApprox rejects out-of-range surrogate knob overrides, naming
// the JSON field.
func (r SweepRequest) ValidateApprox() error {
	if r.ApproxMaxErr < 0 {
		return fmt.Errorf("approx_maxerr must be positive (got %g)", r.ApproxMaxErr)
	}
	if r.ApproxSpotCheck < 0 || r.ApproxSpotCheck > 1 {
		return fmt.Errorf("approx_spotcheck must be in [0,1] (got %g)", r.ApproxSpotCheck)
	}
	return nil
}

// DefaultFormat is the response encoding of requests that omit Format.
const DefaultFormat = sweep.FormatCSV

// DecodeSweepRequest parses a POST /sweeps body. Unknown fields are
// rejected so a typoed axis name ("latencys") fails loudly with a 400
// instead of silently sweeping the default.
func DecodeSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request body: %w", err)
	}
	return req, nil
}

// Grid parses the request's axis values into a sweep.Grid. Element errors
// name the JSON field; grid-level validation (unknown apps, out-of-range
// values) stays with sweep.Grid.Validate, exactly as in the CLI.
func (r SweepRequest) Grid() (sweep.Grid, error) {
	g := sweep.Grid{
		Apps:         r.Apps,
		Ranks:        r.Ranks,
		Chunks:       r.Chunks,
		Buses:        r.Buses,
		RanksPerNode: r.RanksPerNode,
	}
	var err error
	if g.Bandwidths, err = cliflag.ParseList(r.Bandwidths, "bandwidths", units.ParseBandwidth); err != nil {
		return g, err
	}
	if g.Latencies, err = cliflag.ParseList(r.Latencies, "latencies", units.ParseDuration); err != nil {
		return g, err
	}
	if g.Mechanisms, err = cliflag.ParseMechanisms(r.Mechanisms); err != nil {
		return g, fmt.Errorf("mechanisms: %w", err)
	}
	if g.Patterns, err = cliflag.ParsePatterns(r.Patterns); err != nil {
		return g, fmt.Errorf("patterns: %w", err)
	}
	if g.EagerThresholds, err = cliflag.ParseEagerThresholds(r.EagerThresholds); err != nil {
		return g, fmt.Errorf("eager_thresholds: %w", err)
	}
	if g.Collectives, err = cliflag.ParseCollectives(r.Collectives); err != nil {
		return g, fmt.Errorf("collectives: %w", err)
	}
	return g, nil
}

// ResponseFormat resolves the request's output format.
func (r SweepRequest) ResponseFormat() (sweep.Format, error) {
	if r.Format == "" {
		return DefaultFormat, nil
	}
	return sweep.ParseFormat(r.Format)
}
