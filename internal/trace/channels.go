package trace

// Channels numbers a set's directed point-to-point channels — the
// (source, destination, tag) triples its messages are matched on —
// densely from 0, in order of first appearance (rank by rank, record by
// record), and maps every record to its channel.
type Channels struct {
	// N is the number of distinct channels.
	N int
	// IDs[i][j] is the channel of rank i's record j, or -1 when the record
	// is not point-to-point.
	IDs [][]int32
}

// Channels returns the set's channel numbering, computed on first use and
// memoized on the set, for consumers that match messages on every replay.
// Like ValidateOnce it relies on the set not being mutated afterwards, and
// concurrent first calls wait for one computation.
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
	c := &Channels{IDs: make([][]int32, len(s.Traces))}
	seen := map[key]int32{}
	for i := range s.Traces {
		recs := s.Traces[i].Records
		rank := ids[:len(recs):len(recs)]
		ids = ids[len(recs):]
		for j := range recs {
			r := &recs[j]
			var k key
			switch r.Kind {
			case KindSend, KindISend:
				k = key{i, r.Peer, r.Tag}
			case KindRecv, KindIRecv:
				k = key{r.Peer, i, r.Tag}
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
		}
		c.IDs[i] = rank
	}
	c.N = len(seen)
	return c
}
