package replay

import (
	"fmt"
	"sync"

	"overlapsim/internal/des"
	"overlapsim/internal/units"
)

// This file implements the conservative-window parallel engine: one large
// replay's ranks are partitioned into contiguous shards, each owning a
// private DES engine, advancing concurrently between barriers one
// lookahead apart (des.Windows). The lookahead is the minimum configured
// link latency, so any message matched in the current window delivers at
// or past the next barrier — results are identical to sequential replay,
// event for event:
//
//   - A transfer's start time is derived from the recorded post instants
//     (sendAt/recvAt), not from the matching shard's clock, so wire and
//     delivery events carry the exact timestamps the sequential engine
//     would assign.
//   - Delivery is split per endpoint (evDeliverDst/evDeliverSrc) when the
//     two ranks live on different shards; each side's flags and waiter
//     lists are written only by its own shard. The extra event per split
//     is subtracted from the reported step count.
//   - Matching state (channel FIFOs, the transfer arena) is shared
//     under one lock. FIFO pairing stays deterministic regardless of shard
//     interleaving because a directed channel's sends all come from one
//     rank and its receives from one rank, each replayed in program order:
//     the k-th send always pairs with the k-th receive.
//
// Eligibility (parallelPlan) requires a contention-free platform (no
// buses, no per-node link limits): global resource arbitration orders
// transfers by match discovery time, which shard interleaving would
// perturb. Collectives are excluded for the same reason — their release
// time (last arrival plus cost) can undercut another shard's barrier.

// defaultParThreshold is the rank count below which the parallel engine
// declines to engage: window synchronization costs more than the
// concurrency wins on small replays.
const defaultParThreshold = 16

// parState is the reusable shard machinery hung off a root replayer. Each
// shard executes through a view — a replayer whose par/shard identify it,
// whose engine and stats are private, and whose matching state aliases
// the root's.
type parState struct {
	root    *replayer
	views   []*replayer
	engines []*des.Engine
	win     *des.Windows
	mu      sync.Mutex // guards matching state and transfer fields across shards
	ranks   []int32    // rank -> shard (contiguous blocks)
}

func (ps *parState) shardOf(rank int) int { return int(ps.ranks[rank]) }

// parallelPlan decides whether the prepared run (reset must have been
// called) of a trace with or without collectives is eligible for the
// parallel engine and returns the shard count and lookahead when it is.
func (s *replayer) parallelPlan(collectives bool) (int, units.Duration, bool) {
	if s.parallel < 2 {
		return 0, 0, false
	}
	thr := s.parThreshold
	if thr <= 0 {
		thr = defaultParThreshold
	}
	if s.nprocs < thr {
		return 0, 0, false
	}
	if s.cfg.Buses != 0 || s.cfg.InLinks != 0 || s.cfg.OutLinks != 0 {
		return 0, 0, false // resource arbitration is order-dependent
	}
	la := s.cfg.Latency
	if s.cfg.RanksPerNode > 1 && s.cfg.LocalLatency < la {
		// Same-node transfers exist only when nodes hold multiple ranks;
		// then the local latency also bounds cause-to-effect distance.
		la = s.cfg.LocalLatency
	}
	if la <= 0 {
		return 0, 0, false
	}
	if collectives {
		return 0, 0, false
	}
	shards := s.parallel
	if shards > s.nprocs {
		shards = s.nprocs
	}
	return shards, la, true
}

// runParallel executes the prepared run across the given number of shards.
// It leaves merged stats, per-rank finish state, the model error (if any)
// and the corrected step count on the root, mirroring what a sequential
// run leaves behind.
func (s *replayer) runParallel(shards int, lookahead units.Duration) (int64, error) {
	ps := s.scratch
	if ps == nil || len(ps.views) != shards {
		ps = &parState{
			root:    s,
			views:   make([]*replayer, shards),
			engines: make([]*des.Engine, shards),
		}
		for i := range ps.views {
			ps.engines[i] = des.New()
			ps.views[i] = &replayer{eng: ps.engines[i], par: ps, shard: i}
		}
		ps.win = des.NewWindows(ps.engines)
		s.scratch = ps
	}
	n := s.nprocs
	if cap(ps.ranks) < n {
		ps.ranks = make([]int32, n)
	} else {
		ps.ranks = ps.ranks[:n]
	}
	q, rem := n/shards, n%shards
	rank := 0
	for sh := 0; sh < shards; sh++ {
		c := q
		if sh < rem {
			c++
		}
		for j := 0; j < c; j++ {
			ps.ranks[rank] = int32(sh)
			rank++
		}
	}
	for _, v := range ps.views {
		v.eng.Reset()
		v.cfg, v.mips = s.cfg, s.mips
		v.stats = NetworkStats{}
		v.err = nil
		v.extraDeliver = 0
		v.skippedWire = 0
		v.nprocs = n
		v.chans = s.chans
		v.finish, v.done = s.finish, s.done
	}
	for rk, p := range s.procs[:n] {
		v := ps.views[ps.ranks[rk]]
		p.sim = v
		v.eng.ScheduleEvent(0, p, evAdvance)
	}
	defer func() {
		for _, p := range s.procs[:n] {
			p.sim = s
		}
	}()

	// Mid-run recycling is off under the parallel engine; the next reset
	// reclaims every transfer the run drew from the root's arena.
	windows, err := ps.win.Run(lookahead)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}

	var steps, extra, skipped int64
	merged := NetworkStats{}
	for _, v := range ps.views {
		steps += v.eng.Steps()
		extra += v.extraDeliver
		skipped += v.skippedWire
		merged.Transfers += v.stats.Transfers
		merged.LocalTransfers += v.stats.LocalTransfers
		merged.Bytes += v.stats.Bytes
		merged.BusTime += v.stats.BusTime
		merged.Collectives += v.stats.Collectives
		if v.stats.MaxPending > merged.MaxPending {
			merged.MaxPending = v.stats.MaxPending
		}
		if s.err == nil && v.err != nil {
			s.err = v.err // deterministic: lowest shard index wins
		}
	}
	s.stats = merged
	s.ranSteps = steps - extra + skipped
	return windows, nil
}

// startPar routes a claimed transfer into the network under the parallel
// engine; s is the shard that claimed it (claimStart, under the matching
// lock — this routing runs after the lock is released). The start time
// base is sendAt for eager sends and max(sendAt, recvAt) for rendezvous —
// at least the claiming shard's Now, itself at least the window start W,
// so every event scheduled from here lands at or past the barrier
// W+lookahead.
func (s *replayer) startPar(t *transfer) {
	base := t.sendAt
	if !t.eager && t.recvAt > base {
		base = t.recvAt
	}
	if t.local {
		at := base.Add(s.cfg.LocalLatency + s.cfg.LocalBandwidth.TransferTime(t.size))
		s.scheduleDelivery(t, at)
		return
	}
	wire := s.cfg.Bandwidth.TransferTime(t.size)
	s.stats.BusTime += wire
	if s.stats.MaxPending < 1 {
		// The sequential contention-free peak is exactly 1 whenever any
		// remote transfer exists: the arbiter counts each arrival before
		// starting it at once.
		s.stats.MaxPending = 1
	}
	// No resources are held here, so the wire event the sequential engine
	// uses to release them carries no behaviour: fold the wire time into
	// the delivery instant and count the elided step for parity.
	s.skippedWire++
	s.scheduleDelivery(t, base.Add(wire).Add(s.cfg.Latency))
}

// scheduleDelivery fans the delivery at instant at out to the transfer's
// endpoint shards: one combined event when both ranks share a shard,
// otherwise one per side. The extra event of a split is subtracted from
// the reported step count so parallel and sequential replays agree.
func (s *replayer) scheduleDelivery(t *transfer, at units.Time) {
	ps := s.par
	srcSh, dstSh := ps.shardOf(t.src), ps.shardOf(t.dst)
	if srcSh == dstSh {
		// The posting shard owns both endpoints (it posted one of them).
		s.eng.ScheduleEvent(at, t, evDeliver)
		return
	}
	s.extraDeliver++
	if dstSh == s.shard {
		s.eng.ScheduleEvent(at, t, evDeliverDst)
	} else {
		ps.win.Post(dstSh, at, t, evDeliverDst)
	}
	if srcSh == s.shard {
		s.eng.ScheduleEvent(at, t, evDeliverSrc)
	} else {
		ps.win.Post(srcSh, at, t, evDeliverSrc)
	}
}

// deliverDst completes the receiver side of a split delivery in the
// receiver's shard: delivery stats are counted here (once per transfer).
func (s *replayer) deliverDst(t *transfer) {
	t.deliveredDst = true
	s.stats.Transfers++
	s.stats.Bytes += t.size
	if t.local {
		s.stats.LocalTransfers++
	}
	for _, p := range t.waiters {
		p.advance()
	}
	t.waiters = t.waiters[:0]
}

// deliverSrc completes the sender side of a split delivery in the
// sender's shard.
func (s *replayer) deliverSrc(t *transfer) {
	t.deliveredSrc = true
	if t.sender != nil {
		p := t.sender
		t.sender = nil
		p.advance()
	}
	for _, p := range t.srcWaiters {
		p.advance()
	}
	t.srcWaiters = t.srcWaiters[:0]
}
