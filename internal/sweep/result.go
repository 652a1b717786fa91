package sweep

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"

	"overlapsim/internal/stats"
	"overlapsim/internal/units"
)

// Format names a result encoding.
type Format string

// Result encodings.
const (
	FormatTable Format = "table"
	FormatCSV   Format = "csv"
	FormatJSON  Format = "json"
)

// ParseFormat validates a format name.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatTable, FormatCSV, FormatJSON:
		return Format(s), nil
	default:
		return "", fmt.Errorf("sweep: unknown format %q (want table, csv or json)", s)
	}
}

// Write encodes the results in the given format, in slice order. approx
// is the run mode: an `approx` column is added when it is on (every row
// carries its exact/predicted marking, whether or not any prediction
// survived the gate) or when any result is predicted. Platform-axis
// columns are dynamic: they appear (between the bandwidth and chunks
// columns) only when the results sweep the axis. Write and the sinks
// share one encoder, so a batch and a streamed encoding of the same rows
// are the same bytes.
func Write(w io.Writer, f Format, results []Result, approx bool) error {
	overlay := activeOverlayColumns(len(results), func(i int) Point { return results[i].Point })
	e := newEncoder(w, f, overlay, approx || anyApprox(results))
	for _, r := range results {
		if err := e.row(r); err != nil {
			return err
		}
	}
	return e.close()
}

// anyApprox reports whether any result is surrogate-predicted.
func anyApprox(results []Result) bool {
	for _, r := range results {
		if r.Approx {
			return true
		}
	}
	return false
}

// tableHeader builds the aligned-table header row for the given dynamic
// overlay columns.
func tableHeader(overlay []overlayColumn, approx bool) []string {
	header := []string{"app", "ranks", "bandwidth"}
	for _, c := range overlay {
		header = append(header, c.head)
	}
	header = append(header, "chunks", "mechanisms", "pattern",
		"T-original", "T-overlap", "speedup", "blocked")
	if approx {
		header = append(header, "approx")
	}
	return header
}

// tableRow renders one result as an aligned-table row.
func tableRow(overlay []overlayColumn, r Result, approx bool) []string {
	p := r.Point
	row := []string{p.App, ranksLabel(p.Ranks), r.Bandwidth.String()}
	for _, c := range overlay {
		if c.set(p) {
			row = append(row, c.human(p))
		} else {
			row = append(row, baseLabel)
		}
	}
	row = append(row, fmt.Sprint(p.Chunks), p.Mechanisms.String(), p.Pattern.String(),
		units.Duration(r.TOriginal).String(), units.Duration(r.TOverlap).String(),
		fmt.Sprintf("%.3fx", r.Speedup), fmt.Sprintf("%.3f", r.Blocked))
	if approx {
		row = append(row, yesNo(r.Approx))
	}
	return row
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// csvHeader builds the CSV header row for the given dynamic overlay columns.
func csvHeader(overlay []overlayColumn, approx bool) []string {
	header := []string{"app", "ranks", "bandwidth_bytes_per_sec"}
	for _, c := range overlay {
		header = append(header, c.csvHead)
	}
	header = append(header, "chunks", "mechanisms",
		"pattern", "t_original_ns", "t_overlap_ns", "speedup", "blocked_fraction", "des_steps")
	if approx {
		header = append(header, "approx")
	}
	return header
}

// csvRecord renders one result as a CSV record. Times are exact nanosecond
// integers so downstream tooling does not lose precision to the
// human-readable rendering.
func csvRecord(overlay []overlayColumn, r Result, approx bool) []string {
	p := r.Point
	rec := []string{
		p.App,
		fmt.Sprint(p.Ranks),
		fmt.Sprintf("%.0f", float64(r.Bandwidth)),
	}
	for _, c := range overlay {
		if c.set(p) {
			rec = append(rec, c.exact(p))
		} else {
			rec = append(rec, baseLabel)
		}
	}
	rec = append(rec,
		fmt.Sprint(p.Chunks),
		p.Mechanisms.String(),
		p.Pattern.String(),
		fmt.Sprint(int64(r.TOriginal)),
		fmt.Sprint(int64(r.TOverlap)),
		fmt.Sprintf("%.6f", r.Speedup),
		fmt.Sprintf("%.6f", r.Blocked),
		fmt.Sprint(r.Steps),
	)
	if approx {
		rec = append(rec, fmt.Sprint(r.Approx))
	}
	return rec
}

// jsonResult is the stable JSON projection of a Result. The platform-axis
// fields are emitted only when the point sweeps the axis, so grids without
// platform axes keep their exact pre-platform-axis encoding.
type jsonResult struct {
	App          string  `json:"app"`
	Ranks        int     `json:"ranks"`
	Bandwidth    float64 `json:"bandwidth_bytes_per_sec"`
	Latency      *int64  `json:"latency_ns,omitempty"`
	Buses        *int    `json:"buses,omitempty"`
	RanksPerNode *int    `json:"ranks_per_node,omitempty"`
	Eager        *int64  `json:"eager_threshold_bytes,omitempty"`
	Collective   *string `json:"collective,omitempty"`
	Chunks       int     `json:"chunks"`
	Mechanism    string  `json:"mechanisms"`
	Pattern      string  `json:"pattern"`
	TOriginal    int64   `json:"t_original_ns"`
	TOverlap     int64   `json:"t_overlap_ns"`
	Speedup      float64 `json:"speedup"`
	Blocked      float64 `json:"blocked_fraction"`
	Steps        int64   `json:"des_steps"`
	// Approx is emitted (for every row) only in approx mode; exact-mode
	// encodings stay byte-identical to earlier releases.
	Approx *bool `json:"approx,omitempty"`
}

// jsonRow projects one result into its stable JSON form.
func jsonRow(r Result, approx bool) jsonResult {
	p := r.Point
	out := jsonResult{
		App:       p.App,
		Ranks:     p.Ranks,
		Bandwidth: float64(r.Bandwidth),
		Chunks:    p.Chunks,
		Mechanism: p.Mechanisms.String(),
		Pattern:   p.Pattern.String(),
		TOriginal: int64(r.TOriginal),
		TOverlap:  int64(r.TOverlap),
		Speedup:   r.Speedup,
		Blocked:   r.Blocked,
		Steps:     r.Steps,
	}
	ov := p.Platform
	if ov.LatencySet {
		v := int64(ov.Latency)
		out.Latency = &v
	}
	if ov.BusesSet {
		v := ov.Buses
		out.Buses = &v
	}
	if ov.RanksPerNodeSet {
		v := ov.RanksPerNode
		out.RanksPerNode = &v
	}
	if ov.EagerSet {
		v := int64(ov.EagerThreshold)
		out.Eager = &v
	}
	if ov.CollectiveSet {
		v := ov.Collective.String()
		out.Collective = &v
	}
	if approx {
		v := r.Approx
		out.Approx = &v
	}
	return out
}

// encoder writes one result encoding: the header, one row per result and
// the terminator. Unknown formats render as a table. CSV and JSON rows
// reach the writer at each flush; the aligned table cannot commit column
// widths before it has seen every row, so it renders whole at close. The
// header is committed with the first row (or at close), so the approx
// mode may still change until then.
type encoder struct {
	out     *bufio.Writer
	f       Format
	overlay []overlayColumn
	approx  bool
	rows    int
	cw      *csv.Writer
	tb      *stats.Table
}

func newEncoder(w io.Writer, f Format, overlay []overlayColumn, approx bool) *encoder {
	if f != FormatCSV && f != FormatJSON {
		f = FormatTable
	}
	return &encoder{out: bufio.NewWriter(w), f: f, overlay: overlay, approx: approx}
}

// header commits the header row and the approx mode.
func (e *encoder) header() error {
	switch e.f {
	case FormatCSV:
		e.cw = csv.NewWriter(e.out)
		return e.cw.Write(csvHeader(e.overlay, e.approx))
	case FormatJSON:
		_, err := e.out.WriteString("[")
		return err
	default:
		e.tb = stats.NewTable(tableHeader(e.overlay, e.approx)...)
		return nil
	}
}

// row appends one result. Its bytes are buffered until the next flush.
func (e *encoder) row(r Result) error {
	if e.rows == 0 {
		if err := e.header(); err != nil {
			return err
		}
	}
	e.rows++
	switch e.f {
	case FormatCSV:
		return e.cw.Write(csvRecord(e.overlay, r, e.approx))
	case FormatJSON:
		// The framing json.Encoder gives an indented array, one element
		// at a time.
		b, err := json.MarshalIndent(jsonRow(r, e.approx), "  ", "  ")
		if err != nil {
			return err
		}
		sep := ",\n  "
		if e.rows == 1 {
			sep = "\n  "
		}
		if _, err := e.out.WriteString(sep); err != nil {
			return err
		}
		_, err = e.out.Write(b)
		return err
	default:
		e.tb.AddRow(tableRow(e.overlay, r, e.approx)...)
		return nil
	}
}

// flush writes every buffered row to the underlying writer.
func (e *encoder) flush() error {
	if e.cw != nil {
		e.cw.Flush()
		if err := e.cw.Error(); err != nil {
			return err
		}
	}
	return e.out.Flush()
}

// close terminates the encoding after the rows written so far and flushes
// it.
func (e *encoder) close() error {
	if e.rows == 0 {
		if err := e.header(); err != nil {
			return err
		}
	}
	switch e.f {
	case FormatJSON:
		term := "\n]\n"
		if e.rows == 0 {
			term = "]\n"
		}
		if _, err := e.out.WriteString(term); err != nil {
			return err
		}
	case FormatTable:
		if err := e.tb.Render(e.out); err != nil {
			return err
		}
	}
	return e.flush()
}
