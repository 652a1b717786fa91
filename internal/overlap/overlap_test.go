package overlap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"overlapsim/internal/memory"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// sendRecvSet builds a two-rank profiled set:
//
//	rank 0: Burst(1000) Send(4096 -> rank 1)
//	rank 1: Recv Burst(1000)
//
// with production points at 250/500/750/1000 and consumption points at
// 0/250/500/750 (4 chunks).
func sendRecvSet() *ProfiledSet {
	s := trace.NewSet("unit", "original", 2, 1000)
	s.Traces[0].Append(trace.Burst(1000), trace.Send(1, 2, 4096))
	s.Traces[1].Append(trace.Recv(0, 2, 4096), trace.Burst(1000))
	return &ProfiledSet{
		Original: s,
		Chunks:   4,
		Annotations: []map[int]Annotation{
			{1: {Production: &Profile{Offsets: []int64{250, 500, 750, 1000}, Burst: 1000}}},
			{0: {Consumption: &Profile{Offsets: []int64{0, 250, 500, 750}, Burst: 1000}}},
		},
	}
}

func countKind(t *trace.Trace, k trace.Kind) int {
	n := 0
	for _, r := range t.Records {
		if r.Kind == k {
			n++
		}
	}
	return n
}

func TestTransformBothMechanismsReal(t *testing.T) {
	ps := sendRecvSet()
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(out); err != nil {
		t.Fatalf("transformed set invalid: %v", err)
	}
	r0, r1 := &out.Traces[0], &out.Traces[1]

	// Sender: the burst is split and 4 partial isends are injected.
	if got := countKind(r0, trace.KindISend); got != 4 {
		t.Errorf("sender isends = %d, want 4", got)
	}
	if got := countKind(r0, trace.KindSend); got != 0 {
		t.Errorf("original blocking send should be gone, found %d", got)
	}
	if got := r0.TotalInstructions(); got != 1000 {
		t.Errorf("sender burst instructions = %d, want 1000 (split must conserve)", got)
	}
	// The first isend appears after a burst of 250 instructions.
	if r0.Records[0].Kind != trace.KindBurst || r0.Records[0].Instr != 250 {
		t.Errorf("sender trace starts %v, want Burst(250)", r0.Records[0])
	}
	if r0.Records[1].Kind != trace.KindISend {
		t.Errorf("second sender record %v, want isend", r0.Records[1])
	}

	// Receiver: 4 irecvs at the original recv point, 4 waits spread
	// through the following burst. First chunk needed at offset 0: its
	// wait comes before any computation.
	if got := countKind(r1, trace.KindIRecv); got != 4 {
		t.Errorf("receiver irecvs = %d, want 4", got)
	}
	if got := countKind(r1, trace.KindWait); got != 4 {
		t.Errorf("receiver waits = %d, want 4", got)
	}
	if got := r1.TotalInstructions(); got != 1000 {
		t.Errorf("receiver burst instructions = %d, want 1000", got)
	}
	// Chunk sizes sum to the original message size.
	var sent units.Bytes
	for _, r := range r0.Records {
		if r.Kind == trace.KindISend {
			sent += r.Size
		}
	}
	if sent != 4096 {
		t.Errorf("chunk sizes sum to %d, want 4096", sent)
	}
}

func TestTransformEarlySendOnly(t *testing.T) {
	ps := sendRecvSet()
	out, err := Transform(ps, Options{Mechanisms: EarlySend, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(out); err != nil {
		t.Fatal(err)
	}
	r1 := &out.Traces[1]
	// Receiver keeps blocking behaviour: every wait precedes the burst.
	// Records: IR,W,IR,W,...,Burst.
	sawBurst := false
	for _, r := range r1.Records {
		if r.Kind == trace.KindBurst {
			sawBurst = true
		}
		if r.Kind == trace.KindWait && sawBurst {
			t.Fatalf("late wait found with LateRecv disabled: %v", r1.Records)
		}
	}
}

func TestTransformLateRecvOnly(t *testing.T) {
	ps := sendRecvSet()
	out, err := Transform(ps, Options{Mechanisms: LateRecv, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(out); err != nil {
		t.Fatal(err)
	}
	r0 := &out.Traces[0]
	// Sender keeps blocking position: the full burst comes first, then all
	// partial sends at the original send point.
	if r0.Records[0].Kind != trace.KindBurst || r0.Records[0].Instr != 1000 {
		t.Errorf("sender should start with the intact burst: %v", r0.Records[0])
	}
	if got := countKind(r0, trace.KindISend); got != 4 {
		t.Errorf("sender isends = %d, want 4 (chunking is shared)", got)
	}
}

func TestTransformNoMechanismsStillChunks(t *testing.T) {
	ps := sendRecvSet()
	out, err := Transform(ps, Options{Mechanisms: 0, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(out); err != nil {
		t.Fatal(err)
	}
	// Both sides at original positions, still chunked: this variant
	// isolates pure chunking overhead.
	r0, r1 := &out.Traces[0], &out.Traces[1]
	if r0.Records[0].Instr != 1000 {
		t.Error("sender burst should be intact")
	}
	if got := countKind(r1, trace.KindWait); got != 4 {
		t.Errorf("receiver waits = %d, want 4", got)
	}
}

func TestTransformLinearPattern(t *testing.T) {
	ps := sendRecvSet()
	// Corrupt the measured profiles to prove linear ignores them.
	ps.Annotations[0][1] = Annotation{Production: &Profile{Offsets: []int64{1000, 1000, 1000, 1000}, Burst: 1000}}
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	r0 := &out.Traces[0]
	// Linear production: chunk c completes at (c+1)/4 of 1000.
	wantBursts := []int64{250, 250, 250, 250}
	var bursts []int64
	for _, r := range r0.Records {
		if r.Kind == trace.KindBurst {
			bursts = append(bursts, r.Instr)
		}
	}
	if len(bursts) != 4 {
		t.Fatalf("sender bursts = %v, want 4 segments of 250", bursts)
	}
	for i := range wantBursts {
		if bursts[i] != wantBursts[i] {
			t.Errorf("sender burst segments = %v, want %v", bursts, wantBursts)
			break
		}
	}
}

func TestTransformRealWorstCaseProfile(t *testing.T) {
	// All production at the end of the burst, all consumption at the
	// start: the overlapped trace must look like the original (chunked but
	// no early injection benefit).
	ps := sendRecvSet()
	ps.Annotations[0][1] = Annotation{Production: &Profile{Offsets: []int64{1000, 1000, 1000, 1000}, Burst: 1000}}
	ps.Annotations[1][0] = Annotation{Consumption: &Profile{Offsets: []int64{0, 0, 0, 0}, Burst: 1000}}
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &out.Traces[0], &out.Traces[1]
	// Sender: full burst, then all isends.
	if r0.Records[0].Kind != trace.KindBurst || r0.Records[0].Instr != 1000 {
		t.Errorf("worst-case sender should keep burst intact: %v", r0.Records)
	}
	// Receiver: all waits before any burst segment.
	seenWait := 0
	for _, r := range r1.Records {
		if r.Kind == trace.KindWait {
			seenWait++
		}
		if r.Kind == trace.KindBurst && seenWait != 4 {
			t.Errorf("worst-case receiver computes before all waits: %v", r1.Records)
			break
		}
	}
}

func TestTransformMissingAnnotationsConservative(t *testing.T) {
	ps := sendRecvSet()
	ps.Annotations = []map[int]Annotation{{}, {}} // tracer gave us nothing
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	r0 := &out.Traces[0]
	// Production unknown -> chunks only complete at the end of the burst.
	if r0.Records[0].Kind != trace.KindBurst || r0.Records[0].Instr != 1000 {
		t.Errorf("unannotated send should stay at burst end: %v", r0.Records)
	}
	r1 := &out.Traces[1]
	// Consumption unknown -> waits immediately (offset 0), before compute.
	if countKind(r1, trace.KindWait) != 4 {
		t.Errorf("unannotated recv should still wait for all chunks")
	}
}

func TestTransformChunkOverride(t *testing.T) {
	ps := sendRecvSet()
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(&out.Traces[0], trace.KindISend); got != 8 {
		t.Errorf("chunk override: isends = %d, want 8", got)
	}
	if !strings.Contains(out.Variant, "c8") {
		t.Errorf("variant name %q should mention c8", out.Variant)
	}
}

func TestTransformTinyMessageNotOversplit(t *testing.T) {
	s := trace.NewSet("tiny", "original", 2, 1000)
	s.Traces[0].Append(trace.Burst(100), trace.Send(1, 0, 2)) // 2-byte message
	s.Traces[1].Append(trace.Recv(0, 0, 2), trace.Burst(100))
	ps := &ProfiledSet{Original: s, Chunks: 16, Annotations: []map[int]Annotation{{}, {}}}
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	if got := countKind(&out.Traces[0], trace.KindISend); got != 2 {
		t.Errorf("2-byte message split into %d chunks, want 2", got)
	}
	if err := trace.Validate(out); err != nil {
		t.Fatal(err)
	}
}

func TestTransformCollectivesPassThrough(t *testing.T) {
	s := trace.NewSet("coll", "original", 2, 1000)
	for r := 0; r < 2; r++ {
		s.Traces[r].Append(trace.Burst(500), trace.Global(trace.Allreduce, 8, 0), trace.Burst(500))
	}
	ps := &ProfiledSet{Original: s, Chunks: 4, Annotations: []map[int]Annotation{{}, {}}}
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if got := countKind(&out.Traces[r], trace.KindCollective); got != 1 {
			t.Errorf("rank %d collectives = %d, want 1", r, got)
		}
	}
}

func TestTransformCollectiveBoundsInjection(t *testing.T) {
	// A send after a collective must not inject into a burst before the
	// collective: [Burst][Allreduce][Send] has no usable production burst.
	s := trace.NewSet("coll", "original", 2, 1000)
	s.Traces[0].Append(trace.Burst(500), trace.Global(trace.Barrier, 0, 0), trace.Send(1, 0, 64))
	s.Traces[1].Append(trace.Global(trace.Barrier, 0, 0), trace.Recv(0, 0, 64))
	ps := &ProfiledSet{Original: s, Chunks: 2, Annotations: []map[int]Annotation{{}, {}}}
	out, err := Transform(ps, Options{Mechanisms: BothMechanisms, Pattern: PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	r0 := &out.Traces[0]
	if r0.Records[0].Kind != trace.KindBurst || r0.Records[0].Instr != 500 {
		t.Errorf("burst before collective must stay intact: %v", r0.Records)
	}
}

func TestTransformErrors(t *testing.T) {
	if _, err := Transform(nil, Options{}); err == nil {
		t.Error("nil set: expected error")
	}
	ps := sendRecvSet()
	ps.Chunks = 0
	if _, err := Transform(ps, Options{}); err == nil {
		t.Error("zero chunks: expected error")
	}
	ps = sendRecvSet()
	if _, err := Transform(ps, Options{Chunks: MaxChunks + 1}); err == nil {
		t.Error("too many chunks: expected error")
	}
	ps = sendRecvSet()
	ps.Annotations = ps.Annotations[:1]
	if _, err := Transform(ps, Options{}); err == nil {
		t.Error("annotation arity mismatch: expected error")
	}
}

func TestProfileClamp(t *testing.T) {
	p := Profile{Offsets: []int64{-5, 50, 2000, memory.Unread}, Burst: 1000}
	p.Clamp()
	want := []int64{0, 50, 1000, 1000}
	for i := range want {
		if p.Offsets[i] != want[i] {
			t.Errorf("Clamp = %v, want %v", p.Offsets, want)
			break
		}
	}
}

func TestMechanismAndPatternStrings(t *testing.T) {
	if BothMechanisms.String() != "both" || EarlySend.String() != "earlysend" ||
		LateRecv.String() != "laterecv" || Mechanism(0).String() != "none" {
		t.Error("mechanism names wrong")
	}
	if PatternReal.String() != "real" || PatternLinear.String() != "linear" {
		t.Error("pattern names wrong")
	}
	v := Options{Mechanisms: BothMechanisms, Pattern: PatternLinear}.Variant(4)
	if v != "overlap-linear-both-c4" {
		t.Errorf("Variant = %q", v)
	}
}

func TestSplitSizeConserves(t *testing.T) {
	f := func(szU uint32, nU uint8) bool {
		size := units.Bytes(szU % (1 << 24))
		n := int(nU)%16 + 1
		parts := splitSize(nil, size, n)
		var sum units.Bytes
		for _, p := range parts {
			if p < 0 {
				return false
			}
			sum += p
		}
		return sum == size && len(parts) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChunkTagsInjective(t *testing.T) {
	seen := map[int]bool{}
	tags := []int{minTag, minTag + 1, maxTag - 1, maxTag}
	for tag := -8; tag < 8; tag++ {
		tags = append(tags, tag)
	}
	for _, tag := range tags {
		for c := 0; c < MaxChunks; c++ {
			k := chunkTag(tag, c)
			if seen[k] {
				t.Fatalf("chunk tag collision at tag=%d c=%d", tag, c)
			}
			seen[k] = true
		}
	}
}

// randomProfiledSet builds a random but structurally valid profiled set.
// Messages share channels, some are zero-size and some are smaller than
// the chunk counts the property tests use; tags may be negative, and some
// sets carry collectives.
func randomProfiledSet(rng *rand.Rand) *ProfiledSet {
	nranks := rng.Intn(3) + 2
	chunks := rng.Intn(8) + 1
	s := trace.NewSet("prop", "original", nranks, 1000)
	ann := make([]map[int]Annotation, nranks)
	for r := range ann {
		ann[r] = map[int]Annotation{}
	}
	pairs := rng.Intn(10) + 1
	for p := 0; p < pairs; p++ {
		src := rng.Intn(nranks)
		dst := (src + 1 + rng.Intn(nranks-1)) % nranks
		var size units.Bytes
		switch rng.Intn(4) {
		case 0:
			size = 0
		case 1:
			size = units.Bytes(rng.Intn(20) + 1)
		default:
			size = units.Bytes(rng.Intn(1<<14) + 1)
		}
		tag := rng.Intn(4) - 1
		burstS := int64(rng.Intn(5000) + 1)
		burstR := int64(rng.Intn(5000) + 1)

		s.Traces[src].Append(trace.Burst(burstS))
		prod := make([]int64, chunks)
		for c := range prod {
			prod[c] = rng.Int63n(burstS + 1)
		}
		idx := len(s.Traces[src].Records)
		s.Traces[src].Append(trace.Send(dst, tag, size))
		ann[src][idx] = Annotation{Production: &Profile{Offsets: prod, Burst: burstS}}

		idxR := len(s.Traces[dst].Records)
		s.Traces[dst].Append(trace.Recv(src, tag, size))
		cons := make([]int64, chunks)
		for c := range cons {
			cons[c] = rng.Int63n(burstR + 1)
		}
		ann[dst][idxR] = Annotation{Consumption: &Profile{Offsets: cons, Burst: burstR}}
		s.Traces[dst].Append(trace.Burst(burstR))

		if rng.Intn(5) == 0 {
			for r := range s.Traces {
				s.Traces[r].Append(trace.Global(trace.Allreduce, 8, 0))
			}
		}
	}
	return &ProfiledSet{Original: s, Chunks: chunks, Annotations: ann}
}

// randomOriginal is randomProfiledSet with, on most sets, one message
// appended at the end of its two ranks that Transform may or may not
// accept: a blocking message tagged at or just past the ends of the
// chunk-tag range, a non-blocking one, or one left unmatched. reject
// reports whether Transform must refuse the set.
func randomOriginal(rng *rand.Rand) (ps *ProfiledSet, reject bool) {
	ps = randomProfiledSet(rng)
	s := ps.Original
	src := rng.Intn(s.NRanks())
	dst := (src + 1 + rng.Intn(s.NRanks()-1)) % s.NRanks()
	send, recv := &s.Traces[src], &s.Traces[dst]
	size := units.Bytes(rng.Intn(1<<12) + 1)
	switch rng.Intn(8) {
	case 0, 1:
		tag := []int{minTag, maxTag, minTag - 1, maxTag + 1}[rng.Intn(4)]
		send.Append(trace.Burst(100), trace.Send(dst, tag, size))
		recv.Append(trace.Recv(src, tag, size), trace.Burst(100))
		return ps, tag < minTag || tag > maxTag
	case 2, 3:
		req := []int{1, 2, 1000, rng.Intn(1 << 20)}[rng.Intn(4)]
		tag := rng.Intn(4) - 1
		send.Append(trace.ISend(dst, tag, size, req), trace.Burst(100), trace.Wait(req))
		recv.Append(trace.IRecv(src, tag, size, req), trace.Wait(req), trace.Burst(100))
		return ps, true
	case 4:
		send.Append(trace.Send(dst, 0, size))
		return ps, true
	}
	return ps, false
}

// allMechanisms lists every combination of the overlapping mechanisms.
func allMechanisms() []Mechanism {
	var out []Mechanism
	for m := Mechanism(0); m <= EarlySend|LateRecv|PrepostRecv; m++ {
		out = append(out, m)
	}
	return out
}

// chunkOverrides are the Options.Chunks values the property tests cover:
// the profiled granularity, then explicit overrides.
var chunkOverrides = []int{0, 1, 3, 16, MaxChunks}

func TestPropertyTransformPreservesInvariants(t *testing.T) {
	// For random originals and all option combinations: Transform returns
	// an error exactly when the original is not a valid set of blocking,
	// in-range messages. Otherwise the output validates, per-rank
	// instructions are conserved, total bytes are conserved, and the facts
	// Transform derived equal the reference computations.
	f := func(seed int64) bool {
		ps, reject := randomOriginal(rand.New(rand.NewSource(seed)))
		for _, mech := range allMechanisms() {
			for _, pat := range []Pattern{PatternReal, PatternLinear} {
				for _, chunks := range chunkOverrides {
					opts := Options{Mechanisms: mech, Pattern: pat, Chunks: chunks}
					out, err := Transform(ps, opts)
					switch {
					case reject && err == nil:
						t.Logf("%s: Transform accepted an original it must reject", opts.Variant(ps.Chunks))
						return false
					case reject:
						continue
					case err != nil:
						t.Logf("%s: %v", opts.Variant(ps.Chunks), err)
						return false
					}
					if err := factsMatch(out); err != nil {
						t.Logf("%s: %v", opts.Variant(ps.Chunks), err)
						return false
					}
					inStats, outStats := trace.Stats(ps.Original), trace.Stats(out)
					if inStats.Instructions != outStats.Instructions {
						return false
					}
					if inStats.Bytes != outStats.Bytes {
						return false
					}
					for r := range out.Traces {
						if out.Traces[r].TotalInstructions() != ps.Original.Traces[r].TotalInstructions() {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
