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
//
// Transform takes originals of blocking point-to-point records, as the
// paper defines automatic overlap and as the tracer and tracegen emit
// them, and rejects any other. Every variant arrives pre-validated and
// pre-numbered: Transform derives its replay facts (validity, the
// collectives flag and trace.Channels) while it writes the records, so
// the replayer neither validates nor numbers it.
package overlap

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

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
		p.Offsets[i] = clampOffset(o, p.Burst)
	}
}

// clampOffset is one offset of Profile.Clamp.
func clampOffset(o, burst int64) int64 {
	if o == memory.Unread || o > burst {
		return burst
	}
	return max(o, 0)
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
//
// The original must validate, hold no ISend, IRecv or Wait record and use
// only tags chunkTag maps injectively; the tracer and tracegen emit only
// such originals, and Transform rejects any other (see blockingOriginal).
// The variant arrives with its replay facts filled in
// (trace.Set.MarkValid): it is marked valid, with the original's
// collectives flag, and numbered with the channels and request slots
// trace.Set.Channels would compute. Transform derives them while it
// writes the records; the variant is valid by construction, given the
// local invariant Transform checks as it writes (see checkSplit and
// scratch.put).
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
	collectives, err := blockingOriginal(ps.Original)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.free()
	sc.start(ps.Original, chunks)
	out := trace.NewSet(ps.Original.Name, opts.Variant(ps.Chunks), ps.Original.NRanks(), ps.Original.MIPS)
	for rank := range ps.Original.Traces {
		if err := sc.transformRank(&out.Traces[rank], &ps.Original.Traces[rank], rank, ps.Annotations[rank], opts); err != nil {
			return nil, fmt.Errorf("overlap: rank %d: %w", rank, err)
		}
	}
	out.MarkValid(collectives, sc.channels(out))
	return out, nil
}

// blockingOriginal checks that Transform accepts s (see Transform) and
// returns its collectives flag. Non-blocking records are rejected because
// they would pass through unchanged with request ids that the chunk
// records' fresh ones may collide with, and out-of-range tags because two
// original channels could then share a chunk channel.
func blockingOriginal(s *trace.Set) (collectives bool, err error) {
	if collectives, err = s.ValidateOnce(); err != nil {
		return false, fmt.Errorf("overlap: %w", err)
	}
	for i := range s.Traces {
		recs := s.Traces[i].Records
		for j := range recs {
			switch r := &recs[j]; r.Kind {
			case trace.KindISend, trace.KindIRecv, trace.KindWait:
				return false, fmt.Errorf("overlap: rank %d: record %d (%s): the original must hold only blocking point-to-point records", i, j, r)
			case trace.KindSend, trace.KindRecv:
				if r.Tag < minTag || r.Tag > maxTag {
					return false, fmt.Errorf("overlap: rank %d: record %d (%s): tag outside [%d, %d]", i, j, r, minTag, maxTag)
				}
			}
		}
	}
	return collectives, nil
}

// injection is one chunk record of a transformed rank: an ISend, IRecv
// or Wait for chunk c of the Send or Recv at index src. It is emitted at
// the original record with index at: inside that burst at an instruction
// offset, or in place of that Send or Recv. At one offset, priority
// orders preposted receives before sends before waits, so that available
// data departs before the process blocks; generation order breaks the
// remaining ties. It holds no pointer and no record, so grouping and
// sorting injections moves little memory.
type injection struct {
	offset int64
	size   units.Bytes
	at     int32
	src    int32
	c      int32
	req    int32
	kind   trace.Kind
	pri    int8
}

// scratch is the working storage of one Transform call. It is pooled, and
// the ranks of a set are transformed one after another through it, so
// repeated transforms settle to allocating little more than their output.
type scratch struct {
	chunks int
	inj    []injection   // the rank's chunk records in generation order
	byAt   []injection   // inj grouped by injection.at
	ends   []int32       // byAt[ends[i-1]:ends[i]] is record i's group
	offs   []int64       // one message's chunk offsets
	sizes  []units.Bytes // one message's chunk sizes

	recs []trace.Record // the original records of the rank being written

	// Fact derivation.
	orig    *trace.Channels
	origIDs []int32 // the original channels of the rank being written
	chans   []int32 // origChannel*chunks + c -> variant channel, -1 if unseen
	n       int32   // variant channels numbered so far
	req     []int32 // the rank's request id -> slot of its IRecv, or a req state
	posted  int32   // the rank's IRecvs so far: the next slot
	waits   int32   // the rank's Waits so far
	ids     []int32 // Channels.IDs of every rank, back to back
	slots   []int32 // Channels.Slots
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Request states in scratch.req other than a slot.
const (
	reqUnposted int32 = -1
	reqWaited   int32 = -2
)

// start prepares the scratch for transforming s with the given chunk count.
func (sc *scratch) start(s *trace.Set, chunks int) {
	sc.chunks = chunks
	sc.n = 0
	sc.ids = sc.ids[:0]
	sc.slots = sc.slots[:0]
	sc.orig = s.Channels()
	sc.chans = resize(sc.chans, sc.orig.N*chunks)
	for i := range sc.chans {
		sc.chans[i] = -1
	}
}

// free returns the scratch to the pool, without its references into the
// sets of the call.
func (sc *scratch) free() {
	sc.recs, sc.orig, sc.origIDs = nil, nil, nil
	scratchPool.Put(sc)
}

// channels returns the numbering derived while out's ranks were written.
func (sc *scratch) channels(out *trace.Set) *trace.Channels {
	c := &trace.Channels{N: int(sc.n), IDs: make([][]int32, len(out.Traces)), Slots: slices.Clone(sc.slots)}
	ids := slices.Clone(sc.ids)
	for i := range out.Traces {
		n := len(out.Traces[i].Records)
		c.IDs[i] = ids[:n:n]
		ids = ids[n:]
	}
	return c
}

// resize returns s with length n and zeroed contents, reusing its storage.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// transformRank writes the overlapped records of rank t into out.
func (sc *scratch) transformRank(out, t *trace.Trace, rank int, ann map[int]Annotation, opts Options) error {
	recs := t.Records
	sc.recs = recs
	sc.origIDs = sc.orig.IDs[rank]
	sc.inj = sc.inj[:0]
	add := func(at, pri int, offset int64, kind trace.Kind, src, c int, size units.Bytes, req int) {
		sc.inj = append(sc.inj, injection{offset: offset, size: size, at: int32(at), src: int32(src),
			c: int32(c), req: int32(req), kind: kind, pri: int8(pri)})
	}
	nextReq := 1
	bound := len(recs) // an upper bound on the output length, completed below
	for i := range recs {
		r := &recs[i]
		if r.Kind != trace.KindSend && r.Kind != trace.KindRecv {
			continue
		}
		bound--
		n := effectiveChunks(sc.chunks, r.Size)
		sizes, err := sc.split(r, n)
		if err != nil {
			return fmt.Errorf("record %d (%s): %w", i, r, err)
		}
		if r.Kind == trace.KindSend {
			target := prevBurst(recs, i)
			early := opts.Mechanisms&EarlySend != 0 && target >= 0
			var offs []int64
			if early {
				offs = sendOffsets(sc.offsets(n), ann[i], recs[target].Instr, opts)
			}
			for c, size := range sizes {
				if early {
					add(target, 0, offs[c], trace.KindISend, i, c, size, nextReq)
				} else {
					add(i, 0, 0, trace.KindISend, i, c, size, nextReq)
				}
				nextReq++
			}
			continue
		}
		target := nextBurst(recs, i)
		late := opts.Mechanisms&LateRecv != 0 && target >= 0
		var offs []int64
		if late {
			offs = recvOffsets(sc.offsets(n), ann[i], recs[target].Instr, opts)
		}
		pre := -1
		if opts.Mechanisms&PrepostRecv != 0 {
			pre = prepostTarget(recs, i)
		}
		for c, size := range sizes {
			req := nextReq
			nextReq++
			if pre >= 0 {
				add(pre, -1, 0, trace.KindIRecv, i, c, size, req)
			} else {
				add(i, 0, 0, trace.KindIRecv, i, c, size, req)
			}
			if late {
				add(target, 1, offs[c], trace.KindWait, i, c, 0, req)
			} else {
				// Blocking behaviour retained: wait for every chunk at
				// the original receive point.
				add(i, 0, 0, trace.KindWait, i, c, 0, req)
			}
		}
	}

	// Group the chunk records by the record they are emitted at, in
	// generation order within a group (a stable counting sort), and
	// presize the output to an upper bound: a burst splits around each of
	// its injections, a Send or Recv becomes the chunk records left at it.
	sc.ends = resize(sc.ends, len(recs)+1)
	for k := range sc.inj {
		in := &sc.inj[k]
		sc.ends[in.at+1]++
		switch recs[in.at].Kind {
		case trace.KindBurst:
			bound += 2
		case trace.KindSend, trace.KindRecv:
			bound++
		}
	}
	for i := 1; i < len(sc.ends); i++ {
		sc.ends[i] += sc.ends[i-1]
	}
	sc.byAt = resize(sc.byAt, len(sc.inj))
	for k := range sc.inj {
		at := sc.inj[k].at
		sc.byAt[sc.ends[at]] = sc.inj[k]
		sc.ends[at]++
	}
	// Now ends[i] is where record i's group ends and record i+1's begins.

	sc.req = resize(sc.req, nextReq)
	for i := range sc.req {
		sc.req[i] = reqUnposted
	}
	sc.posted, sc.waits = 0, 0
	out.Records = make([]trace.Record, 0, bound)
	base := len(sc.ids)
	var lo int32
	for i := range recs {
		r := &recs[i]
		group := sc.byAt[lo:sc.ends[i]]
		lo = sc.ends[i]
		switch {
		case r.Kind == trace.KindBurst && len(group) > 0:
			slices.SortStableFunc(group, func(a, b injection) int {
				if c := cmp.Compare(a.offset, b.offset); c != 0 {
					return c
				}
				return cmp.Compare(a.pri, b.pri)
			})
			total := r.Instr
			var prev int64
			for k := range group {
				off := min(max(group[k].offset, 0), total)
				out.Append(trace.Burst(off - prev))
				if err := sc.put(out, base, &group[k]); err != nil {
					return err
				}
				prev = off
			}
			out.Append(trace.Burst(total - prev))
		case r.Kind == trace.KindSend || r.Kind == trace.KindRecv:
			for k := range group {
				if err := sc.put(out, base, &group[k]); err != nil {
					return err
				}
			}
		default:
			out.Append(*r)
		}
	}
	sc.pad(out, base)
	if sc.waits != sc.posted {
		return fmt.Errorf("%d chunk receives posted but %d waited", sc.posted, sc.waits)
	}
	sc.slots = append(sc.slots, sc.posted)
	return nil
}

// put appends the chunk record of an injection to out and its
// Channels.IDs entry, checking that every Wait consumes a request its
// rank posted earlier and has not waited yet. base is where the rank's
// IDs begin.
func (sc *scratch) put(out *trace.Trace, base int, in *injection) error {
	if in.kind == trace.KindWait {
		out.Records = append(out.Records, trace.Wait(int(in.req)))
	} else {
		r := &sc.recs[in.src]
		out.Records = append(out.Records, trace.Record{Kind: in.kind, Peer: r.Peer,
			Tag: chunkTag(r.Tag, int(in.c)), Size: in.size, Req: int(in.req)})
	}
	var id int32
	switch in.kind {
	case trace.KindISend:
		// No Wait consumes a chunk send (see the package comment), so it
		// takes no request slot.
		id = -2 - sc.channel(in)
	case trace.KindIRecv:
		id = sc.channel(in)
		sc.req[in.req] = sc.posted
		sc.posted++
	case trace.KindWait:
		id = sc.req[in.req]
		if id < 0 {
			return fmt.Errorf("wait for request %d, which the rank has not posted or already waited", in.req)
		}
		sc.req[in.req] = reqWaited
		sc.waits++
	}
	sc.pad(out, base)
	sc.ids[len(sc.ids)-1] = id
	return nil
}

// pad extends the rank's IDs to out's length with -1, the entry of every
// record but a chunk record.
func (sc *scratch) pad(out *trace.Trace, base int) {
	for len(sc.ids)-base < len(out.Records) {
		sc.ids = append(sc.ids, -1)
	}
}

// channel returns the variant channel of a chunk record, numbering
// channels in order of first appearance as trace.Set.Channels does.
func (sc *scratch) channel(in *injection) int32 {
	key := int(sc.origIDs[in.src])*sc.chunks + int(in.c)
	id := sc.chans[key]
	if id < 0 {
		id = sc.n
		sc.n++
		sc.chans[key] = id
	}
	return id
}

// mutateSplit, when set, alters the chunk sizes of every Send or Recv
// before they are checked; tests use it to break the local invariant.
var mutateSplit func(kind trace.Kind, sizes []units.Bytes) []units.Bytes

// split returns the chunk sizes of a Send or Recv record split into n
// chunks, after checking them (checkSplit).
func (sc *scratch) split(r *trace.Record, n int) ([]units.Bytes, error) {
	sc.sizes = splitSize(sc.sizes[:0], r.Size, n)
	sizes := sc.sizes
	if mutateSplit != nil {
		sizes = mutateSplit(r.Kind, sizes)
	}
	return sizes, checkSplit(sizes, r.Size, n)
}

// checkSplit checks the local invariant that makes a variant valid by
// construction: a message becomes n chunks whose sizes sum to its size,
// with n a function of the size alone, so a matched send and receive
// split alike.
func checkSplit(sizes []units.Bytes, size units.Bytes, n int) error {
	var sum units.Bytes
	for _, s := range sizes {
		sum += s
	}
	if len(sizes) != n || sum != size {
		return fmt.Errorf("split into %d chunks of %d bytes in all, want %d chunks of %d", len(sizes), int64(sum), n, int64(size))
	}
	return nil
}

func (sc *scratch) offsets(n int) []int64 {
	if cap(sc.offs) < n {
		sc.offs = make([]int64, n)
	}
	return sc.offs[:n]
}

// prevBurst returns the index of the burst whose production feeds the
// Send at index i, or -1.
func prevBurst(recs []trace.Record, i int) int {
	for j := i - 1; j >= 0; j-- {
		switch recs[j].Kind {
		case trace.KindBurst:
			return j
		case trace.KindSend, trace.KindMarker:
			// Other sends off the same burst are fine to skip.
		default:
			// A receive, wait or collective breaks the production
			// relationship: the tracer profiles production only against
			// the burst directly feeding the send.
			return -1
		}
	}
	return -1
}

// nextBurst returns the index of the burst that consumes the Recv at
// index i, or -1.
func nextBurst(recs []trace.Record, i int) int {
	for j := i + 1; j < len(recs); j++ {
		switch recs[j].Kind {
		case trace.KindBurst:
			return j
		case trace.KindCollective:
			return -1
		}
	}
	return -1
}

// prepostTarget returns the index of the burst preceding the Recv at
// index i into which its postings may safely move, or -1: the scan stops
// at collectives and at any earlier receive on the same channel (moving
// past it would invert FIFO matching).
func prepostTarget(recs []trace.Record, i int) int {
	rec := &recs[i]
	for j := i - 1; j >= 0; j-- {
		switch r := &recs[j]; r.Kind {
		case trace.KindBurst:
			return j
		case trace.KindCollective:
			return -1
		case trace.KindRecv:
			if r.Peer == rec.Peer && r.Tag == rec.Tag {
				return -1
			}
		}
	}
	return -1
}

// sendOffsets fills dst with the production offsets of a send's chunks in
// the preceding burst of the given length.
func sendOffsets(dst []int64, a Annotation, burst int64, opts Options) []int64 {
	switch {
	case opts.Pattern == PatternLinear:
		linearOffsets(dst, burst, true)
	case a.Production == nil:
		// No measurement: the conservative truth is that the data is only
		// known to be complete at the end of the burst.
		for c := range dst {
			dst[c] = burst
		}
	default:
		resample(dst, a.Production, burst, true)
	}
	return dst
}

// recvOffsets fills dst with the first-need offsets of a receive's chunks
// in the following burst of the given length.
func recvOffsets(dst []int64, a Annotation, burst int64, opts Options) []int64 {
	switch {
	case opts.Pattern == PatternLinear:
		linearOffsets(dst, burst, false)
	case a.Consumption == nil:
		// No measurement: assume the data is needed immediately.
		clear(dst)
	default:
		resample(dst, a.Consumption, burst, false)
	}
	return dst
}

// linearOffsets models the ideal sequential pattern: chunk c of a send is
// produced at (c+1)/n of the burst; chunk c of a receive is first needed at
// c/n of the burst, for n = len(dst).
func linearOffsets(dst []int64, burst int64, production bool) {
	n := int64(len(dst))
	for c := range dst {
		k := int64(c)
		if production {
			k++
		}
		dst[c] = burst * k / n
	}
}

// resample adapts a measured profile (possibly of a different granularity
// or burst length) to len(dst) chunks over the given burst. When merging
// source chunks it takes the conservative direction for correctness: the
// maximum for production profiles (a chunk may not depart before its last
// element is produced) and the minimum for consumption profiles (a chunk
// must be waited for no later than its first use). Source offsets are
// read clamped (Profile.Clamp) without modifying the profile. When the
// tracer profiled with the chunk count the transform uses, resampling is
// the identity apart from clamping.
func resample(dst []int64, p *Profile, burst int64, takeMax bool) {
	m, n := len(p.Offsets), len(dst)
	if m == 0 {
		for c := range dst {
			dst[c] = burst
		}
		return
	}
	for c := range dst {
		// Map target chunk c to the source chunk range [lo,hi).
		lo := c * m / n
		hi := (c + 1) * m / n
		if hi <= lo {
			hi = lo + 1
		}
		var v int64
		if !takeMax {
			v = p.Burst
		}
		for s := lo; s < hi && s < m; s++ {
			o := clampOffset(p.Offsets[s], p.Burst)
			if takeMax {
				v = max(v, o)
			} else {
				v = min(v, o)
			}
		}
		// Rescale from the profiled burst length to the target burst.
		if p.Burst > 0 && p.Burst != burst {
			v = int64(float64(v) / float64(p.Burst) * float64(burst))
		}
		dst[c] = min(v, burst)
	}
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

// splitSize appends to dst the n near-equal parts of size, which sum to
// size.
func splitSize(dst []units.Bytes, size units.Bytes, n int) []units.Bytes {
	var prev int64
	for c := 1; c <= n; c++ {
		bound := int64(size) * int64(c) / int64(n)
		dst = append(dst, units.Bytes(bound-prev))
		prev = bound
	}
	return dst
}

// Tags chunkTag maps without overflowing int.
const (
	minTag = math.MinInt / MaxChunks
	maxTag = math.MaxInt / MaxChunks
)

// chunkTag derives the wire tag of chunk c of a message with the given
// original tag. For 0 <= c < MaxChunks it is injective on tags in
// [minTag, maxTag], negative ones included, where tag*MaxChunks + c
// cannot overflow. Transform bounds the chunk count by MaxChunks and
// rejects originals with a tag outside that range, since there two
// original channels could share a chunk channel.
func chunkTag(tag, c int) int { return tag*MaxChunks + c }
