package trace

import (
	"fmt"
	"slices"
	"sync"
)

// edge identifies a directed point-to-point message class for matching.
type edge struct {
	src, dst, tag int
	size          int64
}

// Request-state bits for the per-rank request map.
const (
	reqPosted uint8 = 1 << iota
	reqWaited
)

// validateScratch holds the working storage of one Validate call. Scratch
// objects are pooled and their maps and slices cleared rather than
// reallocated, so repeated Validate calls settle to zero steady-state
// allocation. (The replayer validates each set once, through
// ValidateOnce.)
type validateScratch struct {
	sends, recvs map[edge]int
	reqs         map[int]uint8 // per-rank posted/waited bits
	keys         []edge
	colls        []Record // rank 0's collective sequence, the reference
}

var validatePool = sync.Pool{New: func() any {
	return &validateScratch{
		sends: map[edge]int{},
		recvs: map[edge]int{},
		reqs:  map[int]uint8{},
	}
}}

// Validate checks structural well-formedness of a trace set:
//
//   - rank indices match trace positions, peers are in range, no self-sends
//     or self-receives;
//   - sizes and burst lengths are non-negative;
//   - Wait records reference a previously posted request, each at most once;
//   - the multiset of point-to-point sends equals the multiset of receives
//     (matched by src, dst, tag, size);
//   - every rank executes the same sequence of collectives (operation, size
//     and root must agree position by position).
//
// It returns nil when the set is consistent, otherwise an error describing
// the first few problems found. Valid sets are checked without formatting
// work: problem locations are rendered only when a problem exists.
func Validate(s *Set) error {
	_, err := validate(s)
	return err
}

// Set.checked states: a set that has not yet validated, and a valid set
// without and with collectives.
const (
	unchecked uint32 = iota
	validNoCollectives
	validCollectives
)

// ValidateOnce is Validate memoized on the set, for consumers that check
// the same set many times (the replayer checks its input on every call).
// A valid set is checked once; an invalid set is checked again on every
// call, so its error is never stale. It also reports whether the set
// contains collectives, which a valid set's rank 0 sequence decides for
// every rank. The memo relies on the set not being mutated once it has
// validated. Concurrent first calls wait for one check instead of each
// building its own scratch: workers replaying one set on many platforms
// all arrive at once. A set vouched for with MarkValid, as
// overlap.Transform does for every variant it returns, is never checked
// here.
func (s *Set) ValidateOnce() (collectives bool, err error) {
	if st := s.checked.Load(); st != unchecked {
		return st == validCollectives, nil
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if st := s.checked.Load(); st != unchecked {
		return st == validCollectives, nil
	}
	collectives, err = validate(s)
	if err != nil {
		return false, err
	}
	state := validNoCollectives
	if collectives {
		state = validCollectives
	}
	s.checked.Store(state)
	return collectives, nil
}

// MarkValid fills the memos of ValidateOnce and Channels for a set whose
// facts were derived while it was written, so that its first replay
// neither validates nor numbers it. Nothing is checked; the caller
// guarantees that Validate(s) returns nil, that collectives reports
// whether s contains a collective record, that c equals what Channels
// would compute for s, and that s is not mutated afterwards. A caller that
// breaks this makes replays of s wrong instead of failing them.
func (s *Set) MarkValid(collectives bool, c *Channels) {
	state := validNoCollectives
	if collectives {
		state = validCollectives
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	s.chans.Store(c)
	s.checked.Store(state)
}

// validate is Validate, additionally reporting whether a valid set
// contains collectives.
func validate(s *Set) (collectives bool, err error) {
	sc := validatePool.Get().(*validateScratch)
	defer validatePool.Put(sc)
	clear(sc.sends)
	clear(sc.recvs)
	sc.colls = sc.colls[:0]

	var problems []string
	addf := func(format string, args ...any) {
		if len(problems) < 16 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	// where renders a problem location; it runs only on invalid input, so
	// the hot (valid) path never formats.
	where := func(i, j int, r Record) string {
		return fmt.Sprintf("rank %d record %d (%s)", i, j, r)
	}

	for i := range s.Traces {
		t := &s.Traces[i]
		if t.Rank != i {
			addf("trace %d has rank %d", i, t.Rank)
		}
		clear(sc.reqs)
		ncolls := 0
		for j, r := range t.Records {
			switch r.Kind {
			case KindBurst:
				if r.Instr < 0 {
					addf("%s: negative burst", where(i, j, r))
				}
			case KindSend, KindISend:
				if r.Peer < 0 || r.Peer >= s.NRanks() {
					addf("%s: peer out of range", where(i, j, r))
					continue
				}
				if r.Peer == i {
					addf("%s: self-send", where(i, j, r))
				}
				if r.Size < 0 {
					addf("%s: negative size", where(i, j, r))
				}
				sc.sends[edge{i, r.Peer, r.Tag, int64(r.Size)}]++
				if r.Kind == KindISend {
					if sc.reqs[r.Req]&reqPosted != 0 {
						addf("%s: duplicate request id %d", where(i, j, r), r.Req)
					}
					sc.reqs[r.Req] |= reqPosted
				}
			case KindRecv, KindIRecv:
				if r.Peer < 0 || r.Peer >= s.NRanks() {
					addf("%s: peer out of range", where(i, j, r))
					continue
				}
				if r.Peer == i {
					addf("%s: self-receive", where(i, j, r))
				}
				if r.Size < 0 {
					addf("%s: negative size", where(i, j, r))
				}
				sc.recvs[edge{r.Peer, i, r.Tag, int64(r.Size)}]++
				if r.Kind == KindIRecv {
					if sc.reqs[r.Req]&reqPosted != 0 {
						addf("%s: duplicate request id %d", where(i, j, r), r.Req)
					}
					sc.reqs[r.Req] |= reqPosted
				}
			case KindWait:
				if sc.reqs[r.Req]&reqPosted == 0 {
					addf("%s: wait for unposted request %d", where(i, j, r), r.Req)
				}
				if sc.reqs[r.Req]&reqWaited != 0 {
					addf("%s: request %d waited twice", where(i, j, r), r.Req)
				}
				sc.reqs[r.Req] |= reqWaited
			case KindCollective:
				if r.Root < 0 || r.Root >= s.NRanks() {
					addf("%s: root out of range", where(i, j, r))
				}
				if r.Size < 0 {
					addf("%s: negative size", where(i, j, r))
				}
				// Rank 0's sequence is the reference; later ranks compare
				// against it in stream order instead of storing their own.
				if i == 0 {
					sc.colls = append(sc.colls, r)
				} else if ncolls < len(sc.colls) {
					ref := sc.colls[ncolls]
					if r.Coll != ref.Coll || r.Root != ref.Root || r.Size != ref.Size {
						addf("rank %d collective %d is %s size %d root %d, rank 0 has %s size %d root %d",
							i, ncolls, r.Coll, int64(r.Size), r.Root, ref.Coll, int64(ref.Size), ref.Root)
					}
				}
				ncolls++
			case KindMarker:
				// always fine
			default:
				addf("%s: unknown kind", where(i, j, r))
			}
		}
		if i > 0 && ncolls != len(sc.colls) {
			addf("rank %d executes %d collectives, rank 0 executes %d", i, ncolls, len(sc.colls))
		}
	}

	// Point-to-point matching.
	sc.keys = sc.keys[:0]
	for k := range sc.sends {
		sc.keys = append(sc.keys, k)
	}
	for k := range sc.recvs {
		if _, dup := sc.sends[k]; !dup {
			sc.keys = append(sc.keys, k)
		}
	}
	keys := sc.keys
	slices.SortFunc(keys, func(ka, kb edge) int {
		if ka.src != kb.src {
			return ka.src - kb.src
		}
		if ka.dst != kb.dst {
			return ka.dst - kb.dst
		}
		if ka.tag != kb.tag {
			return ka.tag - kb.tag
		}
		switch {
		case ka.size < kb.size:
			return -1
		case ka.size > kb.size:
			return 1
		}
		return 0
	})
	for _, k := range keys {
		if sc.sends[k] != sc.recvs[k] {
			addf("p2p mismatch %d->%d tag %d size %d: %d sends, %d recvs",
				k.src, k.dst, k.tag, k.size, sc.sends[k], sc.recvs[k])
		}
	}

	if len(problems) == 0 {
		return len(sc.colls) > 0, nil
	}
	msg := problems[0]
	for _, p := range problems[1:] {
		msg += "; " + p
	}
	return false, fmt.Errorf("trace: invalid set %q/%q: %s", s.Name, s.Variant, msg)
}
