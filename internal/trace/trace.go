package trace

import (
	"fmt"
	"sync"
	"sync/atomic"

	"overlapsim/internal/units"
)

// Kind enumerates record types.
type Kind uint8

// Record kinds.
const (
	// KindBurst is a computation burst of Record.Instr instructions.
	KindBurst Kind = iota
	// KindSend is a blocking send of Size bytes to Peer with Tag.
	KindSend
	// KindRecv is a blocking receive of Size bytes from Peer with Tag.
	KindRecv
	// KindISend is a non-blocking send; Req names the rank-local request.
	KindISend
	// KindIRecv is a non-blocking receive posting; Req names the request.
	KindIRecv
	// KindWait blocks until the transfer of request Req completes.
	KindWait
	// KindCollective is a global operation involving every rank.
	KindCollective
	// KindMarker is a zero-cost annotation (phase label) for visualization.
	KindMarker
)

var kindNames = [...]string{
	KindBurst:      "burst",
	KindSend:       "send",
	KindRecv:       "recv",
	KindISend:      "isend",
	KindIRecv:      "irecv",
	KindWait:       "wait",
	KindCollective: "collective",
	KindMarker:     "marker",
}

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Collective enumerates the global operations the replayer models.
type Collective uint8

// Collective operations.
const (
	Barrier Collective = iota
	Bcast
	Reduce
	Allreduce
	Allgather
	Alltoall
)

var collNames = [...]string{
	Barrier:   "barrier",
	Bcast:     "bcast",
	Reduce:    "reduce",
	Allreduce: "allreduce",
	Allgather: "allgather",
	Alltoall:  "alltoall",
}

// String returns the lowercase name of the collective.
func (c Collective) String() string {
	if int(c) < len(collNames) {
		return collNames[c]
	}
	return fmt.Sprintf("collective(%d)", uint8(c))
}

// ParseCollective is the inverse of Collective.String.
func ParseCollective(s string) (Collective, error) {
	for i, n := range collNames {
		if n == s {
			return Collective(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown collective %q", s)
}

// Record is one trace entry. Only the fields relevant to Kind are
// meaningful; the rest are zero.
type Record struct {
	Kind  Kind
	Instr int64       // KindBurst: burst length in instructions
	Peer  int         // p2p kinds: the other rank
	Tag   int         // p2p kinds: message tag
	Size  units.Bytes // p2p and collective kinds: payload size
	Req   int         // ISend/IRecv/Wait: rank-local request id
	Coll  Collective  // KindCollective
	Root  int         // KindCollective: root rank for rooted operations
	Phase string      // KindMarker: phase label
}

// String renders the record in the codec's line syntax (without rank).
func (r Record) String() string {
	switch r.Kind {
	case KindBurst:
		return fmt.Sprintf("C %d", r.Instr)
	case KindSend:
		return fmt.Sprintf("S %d %d %d", r.Peer, r.Tag, int64(r.Size))
	case KindRecv:
		return fmt.Sprintf("R %d %d %d", r.Peer, r.Tag, int64(r.Size))
	case KindISend:
		return fmt.Sprintf("IS %d %d %d %d", r.Peer, r.Tag, int64(r.Size), r.Req)
	case KindIRecv:
		return fmt.Sprintf("IR %d %d %d %d", r.Peer, r.Tag, int64(r.Size), r.Req)
	case KindWait:
		return fmt.Sprintf("W %d", r.Req)
	case KindCollective:
		return fmt.Sprintf("G %s %d %d", r.Coll, int64(r.Size), r.Root)
	case KindMarker:
		return fmt.Sprintf("M %q", r.Phase)
	default:
		return fmt.Sprintf("? kind=%d", r.Kind)
	}
}

// Burst constructs a computation record.
func Burst(instr int64) Record { return Record{Kind: KindBurst, Instr: instr} }

// Send constructs a blocking send record.
func Send(peer, tag int, size units.Bytes) Record {
	return Record{Kind: KindSend, Peer: peer, Tag: tag, Size: size}
}

// Recv constructs a blocking receive record.
func Recv(peer, tag int, size units.Bytes) Record {
	return Record{Kind: KindRecv, Peer: peer, Tag: tag, Size: size}
}

// ISend constructs a non-blocking send record.
func ISend(peer, tag int, size units.Bytes, req int) Record {
	return Record{Kind: KindISend, Peer: peer, Tag: tag, Size: size, Req: req}
}

// IRecv constructs a non-blocking receive record.
func IRecv(peer, tag int, size units.Bytes, req int) Record {
	return Record{Kind: KindIRecv, Peer: peer, Tag: tag, Size: size, Req: req}
}

// Wait constructs a wait-for-request record.
func Wait(req int) Record { return Record{Kind: KindWait, Req: req} }

// Global constructs a collective record.
func Global(coll Collective, size units.Bytes, root int) Record {
	return Record{Kind: KindCollective, Coll: coll, Size: size, Root: root}
}

// Marker constructs a phase-label record.
func Marker(phase string) Record { return Record{Kind: KindMarker, Phase: phase} }

// Trace is the record sequence of a single rank.
type Trace struct {
	Rank    int
	Records []Record
}

// Append adds records, merging consecutive bursts and dropping empty ones
// so that traces stay canonical regardless of how they were produced.
func (t *Trace) Append(recs ...Record) {
	for _, r := range recs {
		if r.Kind == KindBurst {
			if r.Instr < 0 {
				r.Instr = 0
			}
			if n := len(t.Records); n > 0 && t.Records[n-1].Kind == KindBurst {
				t.Records[n-1].Instr += r.Instr
				continue
			}
			if r.Instr == 0 {
				continue
			}
		}
		t.Records = append(t.Records, r)
	}
}

// TotalInstructions sums the burst lengths of the trace.
func (t *Trace) TotalInstructions() int64 {
	var total int64
	for _, r := range t.Records {
		if r.Kind == KindBurst {
			total += r.Instr
		}
	}
	return total
}

// Set is a complete multi-rank trace: the unit the replayer consumes.
type Set struct {
	Name    string     // application name, e.g. "sweep3d"
	Variant string     // e.g. "original", "overlap-real", "overlap-linear"
	MIPS    units.MIPS // instruction-to-time scale observed in the real run
	Traces  []Trace    // index i holds rank i

	memoMu  sync.Mutex               // serializes first fills of the memos below
	checked atomic.Uint32            // ValidateOnce's memo
	chans   atomic.Pointer[Channels] // Channels' memo
}

// NewSet allocates a set with nranks empty traces.
func NewSet(name, variant string, nranks int, mips units.MIPS) *Set {
	s := &Set{Name: name, Variant: variant, MIPS: mips}
	s.Traces = make([]Trace, nranks)
	for i := range s.Traces {
		s.Traces[i].Rank = i
	}
	return s
}

// NRanks returns the number of ranks in the set.
func (s *Set) NRanks() int { return len(s.Traces) }

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Name: s.Name, Variant: s.Variant, MIPS: s.MIPS}
	out.Traces = make([]Trace, len(s.Traces))
	for i, t := range s.Traces {
		out.Traces[i].Rank = t.Rank
		out.Traces[i].Records = append([]Record(nil), t.Records...)
	}
	return out
}
