// Package overlap implements the paper's central transformation: rewriting
// an original (non-overlapped) trace into the overlapped (potential) traces
// that model automatic overlap of communication and computation.
//
// Automatic overlap partitions every original message into independent
// chunks, sends every chunk as soon as it is produced, and waits for every
// chunk at the moment it is first needed for consumption (paper section I).
// Correspondingly, the transformation
//
//   - splits each Send into partial non-blocking sends injected into the
//     *preceding* computation burst at the chunks' production points, and
//   - splits each Recv into partial receive postings plus waits injected
//     into the *following* computation burst at the chunks' first-need
//     points.
//
// Production and first-need points come from the tracing tool's memory
// profiles (the *real* pattern) or from an assumed uniform distribution
// over the burst (the *linear* pattern, modeling an ideal sequential
// computation order — the assumption of Sancho et al. that the paper
// challenges). Each mechanism can also be enabled separately, mirroring the
// paper's ability to study every overlapping mechanism in isolation.
//
// The partial sends are never waited. Each chunked ISend gets a request id,
// but the transformation emits no Wait for it, so in every overlapped
// variant a send's completion never holds back the sender, even for a
// rendezvous-sized chunk: only the receiver's waits synchronize. Adding
// those waits would change the model. Every overlapped replay would move,
// and with it the byte-identity gates and the benchmark's reference
// outputs, so it belongs in a change of its own.
package overlap

import (
	"fmt"
	"sort"
	"strings"

	"overlapsim/internal/memory"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// MaxChunks bounds the number of partial messages per original message so
// that chunk tags can be derived collision-free from original tags.
const MaxChunks = 256

// Mechanism is a bit set selecting which overlapping mechanisms the
// transformation applies.
type Mechanism uint8

// Overlapping mechanisms.
const (
	// EarlySend injects partial sends at the points where the chunks are
	// finally produced inside the preceding computation burst.
	EarlySend Mechanism = 1 << iota
	// LateRecv injects partial waits at the points where the chunks are
	// first needed inside the following computation burst.
	LateRecv
	// PrepostRecv moves the partial receive postings from the original
	// receive position to the start of the preceding computation burst.
	// Under an eager protocol this changes nothing; under rendezvous it
	// lets transfers start a full burst earlier — one of the
	// "state-of-the-art MPI properties" the paper lists as future work.
	PrepostRecv
)

// BothMechanisms enables the full automatic-overlap transformation of the
// paper (early sends + late waits, receives posted at the original point).
const BothMechanisms = EarlySend | LateRecv

// String lists the enabled mechanisms.
func (m Mechanism) String() string {
	switch m {
	case 0:
		return "none"
	case EarlySend:
		return "earlysend"
	case LateRecv:
		return "laterecv"
	case BothMechanisms:
		return "both"
	}
	var parts []string
	if m&EarlySend != 0 {
		parts = append(parts, "earlysend")
	}
	if m&LateRecv != 0 {
		parts = append(parts, "laterecv")
	}
	if m&PrepostRecv != 0 {
		parts = append(parts, "prepost")
	}
	if len(parts) == 0 {
		return fmt.Sprintf("mechanism(%d)", uint8(m))
	}
	if m&^PrepostRecv == BothMechanisms {
		return "both+prepost"
	}
	return strings.Join(parts, "+")
}

// Pattern selects where chunk production/consumption points come from.
type Pattern uint8

// Patterns.
const (
	// PatternReal uses the instruction offsets measured by the tracing
	// tool — the pattern by which the application really computes on the
	// communicated data.
	PatternReal Pattern = iota
	// PatternLinear distributes partial transfers uniformly over the
	// burst, modeling the ideal sequential computation pattern.
	PatternLinear
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternReal:
		return "real"
	case PatternLinear:
		return "linear"
	default:
		return fmt.Sprintf("pattern(%d)", uint8(p))
	}
}

// Profile carries the measured per-chunk instruction offsets of one
// message, relative to the start of the adjacent computation burst.
type Profile struct {
	// Offsets has one entry per chunk. For a send it is the offset at
	// which the chunk is fully produced; for a receive, the offset at
	// which the chunk is first needed. An offset equal to Burst means
	// "not before the burst ends".
	Offsets []int64
	// Burst is the length of the adjacent burst in instructions.
	Burst int64
}

// Clamp normalizes all offsets into [0, Burst], mapping memory.Unread to
// Burst.
func (p *Profile) Clamp() {
	for i, o := range p.Offsets {
		if o == memory.Unread || o > p.Burst {
			p.Offsets[i] = p.Burst
		} else if o < 0 {
			p.Offsets[i] = 0
		}
	}
}

// Annotation attaches measured profiles to one point-to-point record.
type Annotation struct {
	// Production is set on Send records: where in the preceding burst each
	// chunk was produced.
	Production *Profile
	// Consumption is set on Recv records: where in the following burst
	// each chunk is first needed.
	Consumption *Profile
}

// ProfiledSet is the tracing tool's full output for one run: the original
// trace plus, per rank, the per-record annotations needed to construct the
// overlapped traces.
type ProfiledSet struct {
	Original *trace.Set
	// Annotations[rank][recordIndex] describes the p2p record at that
	// index in Original.Traces[rank].
	Annotations []map[int]Annotation
	// Chunks is the partition granularity the tracer profiled with.
	Chunks int
}

// Options configures a transformation.
type Options struct {
	// Mechanisms selects the overlapping mechanisms; BothMechanisms gives
	// the full automatic overlap.
	Mechanisms Mechanism
	// Pattern selects measured (real) or assumed (linear) computation
	// patterns.
	Pattern Pattern
	// Chunks overrides the chunk count; 0 uses the profiled granularity.
	Chunks int
}

// Variant returns the conventional variant name for the options, e.g.
// "overlap-real-both-c8".
func (o Options) Variant(defaultChunks int) string {
	n := o.Chunks
	if n == 0 {
		n = defaultChunks
	}
	return fmt.Sprintf("overlap-%s-%s-c%d", o.Pattern, o.Mechanisms, n)
}

// Transform builds the overlapped (potential) trace set for the given
// options. The input set is not modified.
func Transform(ps *ProfiledSet, opts Options) (*trace.Set, error) {
	if ps == nil || ps.Original == nil {
		return nil, fmt.Errorf("overlap: nil profiled set")
	}
	chunks := opts.Chunks
	if chunks == 0 {
		chunks = ps.Chunks
	}
	if chunks <= 0 || chunks > MaxChunks {
		return nil, fmt.Errorf("overlap: chunk count %d out of range [1,%d]", chunks, MaxChunks)
	}
	if len(ps.Annotations) != ps.Original.NRanks() {
		return nil, fmt.Errorf("overlap: %d annotation maps for %d ranks", len(ps.Annotations), ps.Original.NRanks())
	}
	out := trace.NewSet(ps.Original.Name, opts.Variant(ps.Chunks), ps.Original.NRanks(), ps.Original.MIPS)
	for rank := range ps.Original.Traces {
		tr, err := transformRank(&ps.Original.Traces[rank], ps.Annotations[rank], chunks, opts)
		if err != nil {
			return nil, fmt.Errorf("overlap: rank %d: %w", rank, err)
		}
		out.Traces[rank] = *tr
		out.Traces[rank].Rank = rank
	}
	return out, nil
}

// injection is a record to insert into a burst at a given instruction
// offset. Priority breaks ties: sends go before waits so that available
// data departs before the process blocks.
type injection struct {
	offset int64
	pri    int
	seq    int
	rec    trace.Record
}

// element is one original record together with the transformation state
// attached to it.
type element struct {
	rec        trace.Record
	isBurst    bool
	injections []injection
	replaced   bool           // original record dropped
	replace    []trace.Record // records emitted in place of the original
}

func transformRank(t *trace.Trace, ann map[int]Annotation, chunks int, opts Options) (*trace.Trace, error) {
	elems := make([]*element, len(t.Records))
	for i, r := range t.Records {
		elems[i] = &element{rec: r, isBurst: r.Kind == trace.KindBurst}
	}
	nextReq := 1
	injSeq := 0

	prevBurst := func(i int) *element {
		for j := i - 1; j >= 0; j-- {
			switch elems[j].rec.Kind {
			case trace.KindBurst:
				return elems[j]
			case trace.KindSend, trace.KindISend, trace.KindMarker:
				// Other sends off the same burst are fine to skip.
			default:
				// A receive, wait or collective breaks the production
				// relationship: the tracer profiles production only against
				// the burst directly feeding the send.
				return nil
			}
		}
		return nil
	}
	nextBurst := func(i int) *element {
		for j := i + 1; j < len(elems); j++ {
			if elems[j].isBurst {
				return elems[j]
			}
			if elems[j].rec.Kind == trace.KindCollective {
				return nil
			}
		}
		return nil
	}
	// prepostTarget finds the burst preceding a receive into which its
	// postings may safely move: the scan stops at collectives and at any
	// earlier receive on the same channel (moving past it would invert
	// FIFO matching).
	prepostTarget := func(i int, rec trace.Record) *element {
		for j := i - 1; j >= 0; j-- {
			switch elems[j].rec.Kind {
			case trace.KindBurst:
				return elems[j]
			case trace.KindCollective:
				return nil
			case trace.KindRecv, trace.KindIRecv:
				if elems[j].rec.Peer == rec.Peer && elems[j].rec.Tag == rec.Tag {
					return nil
				}
			}
		}
		return nil
	}

	for i, e := range elems {
		switch e.rec.Kind {
		case trace.KindSend:
			n := effectiveChunks(chunks, e.rec.Size)
			sizes := splitSize(e.rec.Size, n)
			target := prevBurst(i)
			offsets, err := sendOffsets(ann[i], target, n, opts)
			if err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, e.rec, err)
			}
			e.replaced = true
			for c := 0; c < n; c++ {
				rec := trace.ISend(e.rec.Peer, chunkTag(e.rec.Tag, c), sizes[c], nextReq)
				nextReq++
				if opts.Mechanisms&EarlySend != 0 && target != nil {
					injSeq++
					target.injections = append(target.injections,
						injection{offset: offsets[c], pri: 0, seq: injSeq, rec: rec})
				} else {
					e.replace = append(e.replace, rec)
				}
			}

		case trace.KindRecv:
			n := effectiveChunks(chunks, e.rec.Size)
			sizes := splitSize(e.rec.Size, n)
			target := nextBurst(i)
			offsets, err := recvOffsets(ann[i], target, n, opts)
			if err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, e.rec, err)
			}
			e.replaced = true
			var preTarget *element
			if opts.Mechanisms&PrepostRecv != 0 {
				preTarget = prepostTarget(i, e.rec)
			}
			for c := 0; c < n; c++ {
				req := nextReq
				nextReq++
				irecv := trace.IRecv(e.rec.Peer, chunkTag(e.rec.Tag, c), sizes[c], req)
				if preTarget != nil {
					injSeq++
					preTarget.injections = append(preTarget.injections,
						injection{offset: 0, pri: -1, seq: injSeq, rec: irecv})
				} else {
					e.replace = append(e.replace, irecv)
				}
				wait := trace.Wait(req)
				if opts.Mechanisms&LateRecv != 0 && target != nil {
					injSeq++
					target.injections = append(target.injections,
						injection{offset: offsets[c], pri: 1, seq: injSeq, rec: wait})
				} else {
					// Blocking behaviour retained: wait for every chunk at
					// the original receive point.
					e.replace = append(e.replace, wait)
				}
			}
		}
	}

	// Presize the output to an upper bound: a burst splits around each of
	// its injections, a replaced record becomes its replacements.
	bound := 0
	for _, e := range elems {
		switch {
		case e.isBurst:
			bound += 1 + 2*len(e.injections)
		case e.replaced:
			bound += len(e.replace)
		default:
			bound++
		}
	}
	out := &trace.Trace{Rank: t.Rank, Records: make([]trace.Record, 0, bound)}
	for _, e := range elems {
		switch {
		case e.isBurst:
			emitBurst(out, e)
		case e.replaced:
			out.Append(e.replace...)
		default:
			out.Append(e.rec)
		}
	}
	return out, nil
}

// emitBurst writes a burst split at its injection offsets.
func emitBurst(out *trace.Trace, e *element) {
	if len(e.injections) == 0 {
		out.Append(e.rec)
		return
	}
	inj := e.injections
	sort.Slice(inj, func(a, b int) bool {
		if inj[a].offset != inj[b].offset {
			return inj[a].offset < inj[b].offset
		}
		if inj[a].pri != inj[b].pri {
			return inj[a].pri < inj[b].pri
		}
		return inj[a].seq < inj[b].seq
	})
	total := e.rec.Instr
	var prev int64
	for _, in := range inj {
		off := in.offset
		if off < 0 {
			off = 0
		}
		if off > total {
			off = total
		}
		out.Append(trace.Burst(off - prev))
		out.Append(in.rec)
		prev = off
	}
	out.Append(trace.Burst(total - prev))
}

// sendOffsets determines the production offsets for a send's chunks.
func sendOffsets(a Annotation, target *element, n int, opts Options) ([]int64, error) {
	if opts.Mechanisms&EarlySend == 0 || target == nil {
		return make([]int64, n), nil // unused
	}
	burst := target.rec.Instr
	if opts.Pattern == PatternLinear {
		return linearOffsets(burst, n, true), nil
	}
	if a.Production == nil {
		// No measurement: the conservative truth is that the data is only
		// known to be complete at the end of the burst.
		return uniformOffsets(burst, n), nil
	}
	return resample(a.Production, burst, n, true), nil
}

// recvOffsets determines the first-need offsets for a receive's chunks.
func recvOffsets(a Annotation, target *element, n int, opts Options) ([]int64, error) {
	if opts.Mechanisms&LateRecv == 0 || target == nil {
		return make([]int64, n), nil // unused
	}
	burst := target.rec.Instr
	if opts.Pattern == PatternLinear {
		return linearOffsets(burst, n, false), nil
	}
	if a.Consumption == nil {
		// No measurement: assume the data is needed immediately.
		return make([]int64, n), nil
	}
	return resample(a.Consumption, burst, n, false), nil
}

// linearOffsets models the ideal sequential pattern: chunk c of a send is
// produced at (c+1)/n of the burst; chunk c of a receive is first needed at
// c/n of the burst.
func linearOffsets(burst int64, n int, production bool) []int64 {
	out := make([]int64, n)
	for c := 0; c < n; c++ {
		k := int64(c)
		if production {
			k++
		}
		out[c] = burst * k / int64(n)
	}
	return out
}

// uniformOffsets places every chunk at the end of the burst.
func uniformOffsets(burst int64, n int) []int64 {
	out := make([]int64, n)
	for c := range out {
		out[c] = burst
	}
	return out
}

// resample adapts a measured profile (possibly of a different granularity
// or burst length) to n chunks over the given burst. When merging source
// chunks it takes the conservative direction for correctness: the maximum
// for production profiles (a chunk may not depart before its last element
// is produced) and the minimum for consumption profiles (a chunk must be
// waited for no later than its first use). When the tracer profiled with
// the chunk count the transform uses, resampling is the identity apart
// from clamping.
func resample(p *Profile, burst int64, n int, takeMax bool) []int64 {
	src := append([]int64(nil), p.Offsets...)
	prof := Profile{Offsets: src, Burst: p.Burst}
	prof.Clamp()
	m := len(src)
	out := make([]int64, n)
	if m == 0 {
		for c := range out {
			out[c] = burst
		}
		return out
	}
	for c := 0; c < n; c++ {
		// Map target chunk c to the source chunk range [lo,hi).
		lo := c * m / n
		hi := (c + 1) * m / n
		if hi <= lo {
			hi = lo + 1
		}
		var v int64
		if !takeMax {
			v = prof.Burst
		}
		for s := lo; s < hi && s < m; s++ {
			if takeMax && src[s] > v {
				v = src[s]
			}
			if !takeMax && src[s] < v {
				v = src[s]
			}
		}
		// Rescale from the profiled burst length to the target burst.
		if prof.Burst > 0 && prof.Burst != burst {
			v = int64(float64(v) / float64(prof.Burst) * float64(burst))
		}
		if v > burst {
			v = burst
		}
		out[c] = v
	}
	return out
}

// effectiveChunks reduces the chunk count for tiny messages: a message is
// never split below one byte per chunk.
func effectiveChunks(chunks int, size units.Bytes) int {
	if size <= 0 {
		return 1
	}
	if int64(chunks) > int64(size) {
		return int(size)
	}
	return chunks
}

// splitSize partitions size into n near-equal parts that sum to size.
func splitSize(size units.Bytes, n int) []units.Bytes {
	out := make([]units.Bytes, n)
	var prev int64
	for c := 1; c <= n; c++ {
		bound := int64(size) * int64(c) / int64(n)
		out[c-1] = units.Bytes(bound - prev)
		prev = bound
	}
	return out
}

// chunkTag derives the wire tag of chunk c of a message with the given
// original tag. Original tags must be non-negative and chunk counts at most
// MaxChunks, which Transform enforces.
func chunkTag(tag, c int) int { return tag*MaxChunks + c }
