package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own files around a call into the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	ID     string `json:"id,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op, so untraced runs pay one nil check
// per boundary.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its handle.
func (r *recorder) start(name string, parent int, id string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return len(r.spans) - 1
}

// stop closes a span opened by start.
func (r *recorder) stop(h int) {
	if r == nil || h < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[h].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were taken by the caller.
func (r *recorder) add(name string, parent int, id string, from, to time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: from.Sub(r.epoch).Nanoseconds(), End: to.Sub(r.epoch).Nanoseconds(), Parent: parent, ID: id})
	return len(r.spans) - 1
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children of one span may overlap (parallel
// workers, concurrent requests), so the covered part is the length of the
// union of their intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, end int64
		end = s.Start
		for _, v := range ivs {
			if v.a > end {
				end = v.a
			}
			if v.b > end {
				covered += v.b - end
				end = v.b
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerTable groups spans by name, in order of first appearance.
func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerRow
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(rows)
			idx[s.Name] = j
			rows = append(rows, layerRow{Name: s.Name})
		}
		rows[j].Count++
		rows[j].Total += s.dur()
		rows[j].Self += self[i]
	}
	return rows
}

// rowsByName indexes a layer table.
func rowsByName(rows []layerRow) map[string]layerRow {
	m := make(map[string]layerRow, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

// subtree returns the spans under (and including) root, re-indexed so that
// parents still resolve.
func subtree(spans []span, root int) []span {
	in := make([]bool, len(spans))
	remap := make([]int, len(spans))
	var out []span
	for i, s := range spans {
		if i == root || (s.Parent >= 0 && in[s.Parent]) {
			in[i] = true
			remap[i] = len(out)
			s.Parent = -1
			if i != root {
				s.Parent = remap[spans[i].Parent]
			}
			out = append(out, s)
		}
	}
	return out
}

// writeLayerTable renders the per-layer table: count, total and self time
// per span name, with the self share of the root's wall time.
func writeLayerTable(w io.Writer, title string, rows []layerRow, wall time.Duration) {
	fmt.Fprintf(w, "%s (wall %.3fs)\n", title, wall.Seconds())
	fmt.Fprintf(w, "  %-22s %7s %12s %12s %8s\n", "span", "count", "total_s", "self_s", "self%")
	for _, r := range rows {
		share := 0.0
		if wall > 0 {
			share = 100 * r.Self.Seconds() / wall.Seconds()
		}
		fmt.Fprintf(w, "  %-22s %7d %12.6f %12.6f %7.2f%%\n", r.Name, r.Count, r.Total.Seconds(), r.Self.Seconds(), share)
	}
}
