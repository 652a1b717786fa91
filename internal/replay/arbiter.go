package replay

import "overlapsim/internal/machine"

// arbiter grants the network's shared resources — one output link on the
// source node, one input link on the destination node and one bus — to
// protocol-ready remote transfers, in FIFO order with skipping: a queued
// transfer starts as soon as its own resources are free, even when an
// older one is still blocked. It owns the pending queue and the resource
// occupancy; the replayer asks it what starts and schedules the wire
// phases. The queue holds transfer ids (transferArena), not pointers, so
// compacting it moves 4-byte words and fires no GC write barriers.
// Sequential engine only: the parallel engine requires a contention-free
// platform and never arbitrates.
//
// Every queued transfer is blocked once arrive or release returns, and
// resources change only inside those two calls. That invariant gives the
// exact fast paths: an arrival checks only itself, and a release stops
// scanning at a saturated bus.
type arbiter struct {
	outLinks, inLinks, buses int // capacities; 0 means unlimited

	pending []int32     // ids of the blocked transfers, oldest first
	started []*transfer // release's result, reused across calls
	outUse  []int       // per-node output links in use
	inUse   []int       // per-node input links in use
	busUse  int

	// maxPending is the peak queue length, counting an arriving transfer
	// before it is checked (NetworkStats.MaxPending).
	maxPending int
}

// reset empties the arbiter for a run on the platform.
func (a *arbiter) reset(cfg *machine.Config) {
	a.outLinks, a.inLinks, a.buses = cfg.OutLinks, cfg.InLinks, cfg.Buses
	a.pending = a.pending[:0]
	clear(a.started)
	a.started = a.started[:0]
	a.outUse = resizeZeroed(a.outUse, cfg.Nodes)
	a.inUse = resizeZeroed(a.inUse, cfg.Nodes)
	a.busUse = 0
	a.maxPending = 0
}

// free reports whether t's links and a bus are available.
func (a *arbiter) free(t *transfer) bool {
	if a.outLinks > 0 && a.outUse[t.srcNode] >= a.outLinks {
		return false
	}
	if a.inLinks > 0 && a.inUse[t.dstNode] >= a.inLinks {
		return false
	}
	return a.buses <= 0 || a.busUse < a.buses
}

func (a *arbiter) occupy(t *transfer) {
	a.outUse[t.srcNode]++
	a.inUse[t.dstNode]++
	a.busUse++
}

// arrive admits a protocol-ready remote transfer and reports whether it
// occupied its resources at once; otherwise it joins the queue. Every
// queued transfer is blocked and nothing has been freed since, so t is
// the only transfer that could start here.
func (a *arbiter) arrive(t *transfer) bool {
	if n := len(a.pending) + 1; n > a.maxPending {
		a.maxPending = n
	}
	if a.free(t) {
		a.occupy(t)
		return true
	}
	a.pending = append(a.pending, t.id)
	return false
}

// release frees t's resources and starts the queued transfers that now
// fit, oldest first; arena resolves the queued ids. It returns them in
// start order; the slice is reused by the next call. Once the bus is
// saturated nothing behind can start, so the scan stops there, and a queue
// with no starts is left untouched.
func (a *arbiter) release(t *transfer, arena []*transfer) []*transfer {
	a.outUse[t.srcNode]--
	a.inUse[t.dstNode]--
	a.busUse--
	started := a.started[:0]
	q := a.pending
	w := 0 // q[:w] keeps the still-blocked prefix once something started
	i := 0
	for ; i < len(q); i++ {
		if a.buses > 0 && a.busUse >= a.buses {
			break
		}
		id := q[i]
		if p := arena[id]; a.free(p) {
			a.occupy(p)
			if len(started) == 0 {
				w = i
			}
			started = append(started, p)
			continue
		}
		if len(started) > 0 {
			q[w] = id
			w++
		}
	}
	if len(started) > 0 {
		w += copy(q[w:], q[i:])
		a.pending = q[:w]
	}
	a.started = started
	return started
}
