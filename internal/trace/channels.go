package trace

// Channels numbers a set's directed point-to-point channels — the
// (source, destination, tag) triples its messages are matched on —
// densely from 0, in order of first appearance (rank by rank, record by
// record), and maps every record to its channel. It also numbers each
// rank's waited non-blocking requests densely, so a replayer can hold its
// open requests in a slice instead of a map keyed by the trace's
// (arbitrary) request ids: a request's slot is the posting order of its
// ISend or IRecv among the rank's postings that a later Wait consumes.
// A posting no Wait consumes takes no slot, and is marked as such, so a
// replayer can let its transfer go once delivered.
type Channels struct {
	// N is the number of distinct channels.
	N int
	// IDs[i][j] is, for rank i's record j:
	//   - a Send or Recv: its channel;
	//   - an ISend or IRecv: its channel when a later Wait consumes its
	//     request, and -2-channel when none does (see PostChannel);
	//   - a Wait: the slot of the request it waits on — that of the latest
	//     earlier ISend or IRecv on the rank with the same request id — or
	//     -1 when no earlier record posted that id;
	//   - any other record: -1.
	IDs [][]int32
	// Slots[i] is the number of request slots rank i uses: its waited
	// ISend and IRecv records.
	Slots []int32
}

// PostChannel decodes the IDs entry of an ISend or IRecv: its channel, and
// whether a later Wait consumes its request, in which case the posting
// takes the rank's next request slot.
func PostChannel(id int32) (ch int32, waited bool) {
	if id >= 0 {
		return id, true
	}
	return -2 - id, false
}

// Channels returns the set's channel numbering, computed on first use and
// memoized on the set, for consumers that match messages on every replay.
// Like ValidateOnce it relies on the set not being mutated afterwards, and
// concurrent first calls wait for one computation. A set filled in with
// MarkValid, as every overlap.Transform variant is, arrives numbered and
// computes nothing here.
func (s *Set) Channels() *Channels {
	if c := s.chans.Load(); c != nil {
		return c
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if c := s.chans.Load(); c != nil {
		return c
	}
	c := numberChannels(s)
	s.chans.Store(c)
	return c
}

func numberChannels(s *Set) *Channels {
	type key struct{ src, dst, tag int }
	total := 0
	for i := range s.Traces {
		total += len(s.Traces[i].Records)
	}
	ids := make([]int32, total)
	c := &Channels{IDs: make([][]int32, len(s.Traces)), Slots: make([]int32, len(s.Traces))}
	seen := map[key]int32{}
	posted := map[int]int32{} // request id -> record index of its latest posting
	var slotAt []int32        // record index -> slot of a waited posting
	for i := range s.Traces {
		recs := s.Traces[i].Records
		rank := ids[:len(recs):len(recs)]
		ids = ids[len(recs):]
		// First pass: channels, postings marked unwaited, and each Wait
		// pointing at its posting's record index until slots are known.
		clear(posted)
		for j := range recs {
			r := &recs[j]
			var k key
			switch r.Kind {
			case KindSend, KindISend:
				k = key{i, r.Peer, r.Tag}
			case KindRecv, KindIRecv:
				k = key{r.Peer, i, r.Tag}
			case KindWait:
				pj, ok := posted[r.Req]
				if !ok {
					rank[j] = -1
					continue
				}
				if rank[pj] < 0 {
					rank[pj] = -2 - rank[pj]
				}
				rank[j] = pj
				continue
			default:
				rank[j] = -1
				continue
			}
			id, ok := seen[k]
			if !ok {
				id = int32(len(seen))
				seen[k] = id
			}
			rank[j] = id
			if r.Kind == KindISend || r.Kind == KindIRecv {
				rank[j] = -2 - id
				posted[r.Req] = int32(j)
			}
		}
		// Second pass: slots in posting order, then Waits resolved to them.
		// A posting precedes its Waits, so its slot is known when read.
		if cap(slotAt) < len(recs) {
			slotAt = make([]int32, len(recs))
		}
		var slots int32
		for j := range recs {
			switch recs[j].Kind {
			case KindISend, KindIRecv:
				if rank[j] >= 0 {
					slotAt[j] = slots
					slots++
				}
			case KindWait:
				if pj := rank[j]; pj >= 0 {
					rank[j] = slotAt[pj]
				}
			}
		}
		c.IDs[i] = rank
		c.Slots[i] = slots
	}
	c.N = len(seen)
	return c
}
