package sweep

import (
	"fmt"
	"io"
	"sort"
)

// Sink consumes sweep results as they complete. Accept receives each
// point's result exactly once, keyed by its expanded-grid index, in
// completion order — which is unordered across indices and depends on the
// worker count — so every implementation must be order-insensitive. The
// runner serializes Accept calls; sinks need no locking of their own.
// Close finalizes the output: what that means is the implementation's
// contract (encode everything, flush a terminator, write an envelope).
//
// Sink is the architecture every output plugs into: the batch writer, the
// ordered-prefix streamer and the shard envelope are all sinks, so the
// engine and runner carry results exactly one way.
type Sink interface {
	// Accept delivers one completed point. An error aborts the sweep (the
	// runner reports it as a *SinkError); a sink must keep failing once it
	// has failed so a broken output path cannot half-recover silently.
	Accept(index int, r Result) error
	// Close finalizes the output. It is the caller's responsibility —
	// the runner never closes a sink, so an interrupted caller can still
	// decide to flush what arrived (the ordered-prefix contract).
	Close() error
}

// indexedResult pairs a result with its expanded-grid index while it waits
// in a sink's buffer.
type indexedResult struct {
	index int
	res   Result
}

// BatchSink buffers every accepted result and, on Close, calls Write on
// them in index order.
type BatchSink struct {
	w       io.Writer
	f       Format
	approx  bool
	results []indexedResult
	seen    map[int]bool
	err     error
}

// NewBatchSink returns a batch sink encoding to w in format f.
func NewBatchSink(w io.Writer, f Format) *BatchSink {
	return &BatchSink{w: w, f: f, seen: map[int]bool{}}
}

// SetApprox sets the run mode Close passes to Write: on, the approx
// column appears even if every prediction was demoted.
func (s *BatchSink) SetApprox(on bool) { s.approx = on }

// Accept buffers one result.
func (s *BatchSink) Accept(index int, r Result) error {
	if s.err != nil {
		return s.err
	}
	if s.seen[index] {
		s.err = fmt.Errorf("sweep: batch sink: point %d accepted twice", index)
		return s.err
	}
	s.seen[index] = true
	s.results = append(s.results, indexedResult{index, r})
	return nil
}

// Close sorts the buffered results into index order and writes them. It
// encodes exactly what arrived: callers that require completeness (the
// CLI does) must not Close after a failed run.
func (s *BatchSink) Close() error {
	if s.err != nil {
		return s.err
	}
	sort.Slice(s.results, func(i, j int) bool { return s.results[i].index < s.results[j].index })
	out := make([]Result, len(s.results))
	for i, ir := range s.results {
		out[i] = ir.res
	}
	s.err = Write(s.w, s.f, out, s.approx)
	if s.err != nil {
		return s.err
	}
	s.err = fmt.Errorf("sweep: batch sink closed")
	return nil
}

// OrderedSink streams results in grid order: it holds out-of-order arrivals
// and writes the longest contiguous prefix of the expected index sequence
// the moment it becomes complete, flushing it before Accept returns. An
// interrupted sweep therefore leaves a well-formed, ordered partial file
// containing exactly the finished prefix, and a sweep that completes
// produces the bytes Write gives for the same results: both run the same
// encoder.
//
// CSV and JSON rows reach the writer as their prefix completes; the
// aligned table cannot commit to column widths until its rows are known,
// so Close renders the flushed prefix. In every format Close terminates
// the encoding, so even the interrupted file parses.
type OrderedSink struct {
	enc     *encoder
	order   []int // expected indices, ascending grid order
	posOf   map[int]int
	next    int // position in order of the next row to write
	pending map[int]Result
	err     error
}

// NewOrderedSink returns an ordered-prefix sink for the given expected
// points. pts is the grid's full expansion; indices selects the expected
// subset in ascending grid order, with nil meaning every point. The
// selected points determine the dynamic platform columns, as the results
// do for Write.
func NewOrderedSink(w io.Writer, f Format, pts []Point, indices []int) *OrderedSink {
	if indices == nil {
		indices = make([]int, len(pts))
		for i := range pts {
			indices[i] = i
		}
	}
	posOf := make(map[int]int, len(indices))
	for pos, i := range indices {
		posOf[i] = pos
	}
	overlay := activeOverlayColumns(len(indices), func(pos int) Point { return pts[indices[pos]] })
	return &OrderedSink{
		enc:     newEncoder(w, f, overlay, false),
		order:   indices,
		posOf:   posOf,
		pending: map[int]Result{},
	}
}

// SetApprox fixes the approx column for the whole stream. A streaming
// encoding must commit its header before any data arrives, so the column
// reflects the run mode (-approx), not whether a prediction ultimately
// survives the gate. Call it before the first Accept; once a row has been
// written later calls cannot reshape it and are ignored.
func (s *OrderedSink) SetApprox(on bool) {
	if s.next == 0 {
		s.enc.approx = on
	}
}

// Flushed returns how many rows have reached the contiguous prefix — what
// an interrupted run keeps.
func (s *OrderedSink) Flushed() int { return s.next }

// Accept stages one result and flushes the contiguous prefix it extends.
func (s *OrderedSink) Accept(index int, r Result) error {
	if s.err != nil {
		return s.err
	}
	pos, ok := s.posOf[index]
	if !ok {
		s.err = fmt.Errorf("sweep: ordered sink: unexpected point index %d", index)
		return s.err
	}
	if _, dup := s.pending[index]; dup || pos < s.next {
		s.err = fmt.Errorf("sweep: ordered sink: point %d accepted twice", index)
		return s.err
	}
	s.pending[index] = r
	start := s.next
	for s.next < len(s.order) {
		i := s.order[s.next]
		res, ready := s.pending[i]
		if !ready {
			break
		}
		delete(s.pending, i)
		if s.err = s.enc.row(res); s.err != nil {
			return s.err
		}
		s.next++
	}
	if s.next > start {
		s.err = s.enc.flush()
	}
	return s.err
}

// Close terminates the encoding around the flushed prefix. Results still
// waiting behind a gap are dropped — on a completed sweep there are none,
// and on an interrupted one they are exactly the points whose predecessors
// never finished, which an *ordered* partial file must exclude.
func (s *OrderedSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.err = s.enc.close(); s.err != nil {
		return s.err
	}
	s.err = fmt.Errorf("sweep: ordered sink closed")
	return nil
}

// ShardSink collects one shard's results and writes the mergeable envelope
// on Close — the shard writer as a sink. Close refuses to write a partial
// envelope: merge's exactly-once coverage check makes an incomplete shard
// file worthless, so an interrupted shard is re-run instead.
type ShardSink struct {
	w         io.Writer
	signature string
	total     int
	shard     Shard
	approx    bool
	indices   []int
	posOf     map[int]int
	results   []Result
	got       []bool
	n         int
	err       error
}

// SetApprox marks the envelope as coming from an -approx run, so merge
// renders the approx column even if every prediction was demoted.
func (s *ShardSink) SetApprox(on bool) { s.approx = on }

// NewShardSink returns a sink writing the shard envelope for the given
// sweep signature, total point count and owned indices (ascending).
func NewShardSink(w io.Writer, signature string, total int, shard Shard, indices []int) *ShardSink {
	posOf := make(map[int]int, len(indices))
	for pos, i := range indices {
		posOf[i] = pos
	}
	return &ShardSink{
		w:         w,
		signature: signature,
		total:     total,
		shard:     shard,
		indices:   indices,
		posOf:     posOf,
		results:   make([]Result, len(indices)),
		got:       make([]bool, len(indices)),
	}
}

// Accept stores one owned point's result.
func (s *ShardSink) Accept(index int, r Result) error {
	if s.err != nil {
		return s.err
	}
	pos, ok := s.posOf[index]
	if !ok {
		s.err = fmt.Errorf("sweep: shard sink: point %d is not owned by shard %s", index, s.shard)
		return s.err
	}
	if s.got[pos] {
		s.err = fmt.Errorf("sweep: shard sink: point %d accepted twice", index)
		return s.err
	}
	s.got[pos] = true
	s.results[pos] = r
	s.n++
	return nil
}

// Close writes the envelope once every owned point has arrived.
func (s *ShardSink) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.n != len(s.indices) {
		s.err = fmt.Errorf("sweep: shard sink: %d of %d points arrived; refusing to write a partial envelope for shard %s",
			s.n, len(s.indices), s.shard)
		return s.err
	}
	s.err = WriteShardMode(s.w, s.signature, s.total, s.shard, s.indices, s.results, s.approx || anyApprox(s.results))
	if s.err != nil {
		return s.err
	}
	s.err = fmt.Errorf("sweep: shard sink closed")
	return nil
}
