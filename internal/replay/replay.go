package replay

import (
	"fmt"
	"slices"
	"sync"

	"overlapsim/internal/des"
	"overlapsim/internal/machine"
	"overlapsim/internal/timeline"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// NetworkStats aggregates what the network did during a replay.
type NetworkStats struct {
	Transfers      int            // point-to-point transfers completed
	LocalTransfers int            // subset that stayed within a node
	Bytes          units.Bytes    // total point-to-point payload
	BusTime        units.Duration // total wire occupancy summed over buses
	Collectives    int            // collective operations completed
	// MaxPending is the peak number of remote transfers waiting for
	// network resources, counting each arriving transfer before it is
	// checked — one that starts the moment it arrives counts too, so it is
	// at least 1 whenever any remote transfer exists.
	MaxPending int
}

// BusUtilization returns the mean fraction of the configured buses kept
// busy over the run; 0 when the platform has unlimited buses.
func (n NetworkStats) BusUtilization(buses int, total units.Time) float64 {
	if buses <= 0 || total <= 0 {
		return 0
	}
	return n.BusTime.Seconds() / (float64(buses) * units.Duration(total).Seconds())
}

// RankBreakdown is the per-rank time accounting of a replay.
type RankBreakdown struct {
	Rank       int
	Finish     units.Time
	Compute    units.Duration
	Overhead   units.Duration
	Send       units.Duration
	Recv       units.Duration
	Wait       units.Duration
	Collective units.Duration
}

// Blocked sums all communication stall time.
func (r RankBreakdown) Blocked() units.Duration {
	return r.Send + r.Recv + r.Wait + r.Collective
}

// Result is the outcome of replaying one trace set.
type Result struct {
	Total     units.Time // simulated runtime (max rank finish)
	Timelines *timeline.Set
	Network   NetworkStats
	Steps     int64 // DES events executed
	Windows   int64 // conservative-window rounds (0 when run sequentially)
}

// Ranks derives the per-rank time accounting from the timelines. It is a
// method rather than a stored field so the warm Simulate path only pays
// for breakdowns when a caller wants them; each call allocates a fresh
// slice the caller owns.
func (r *Result) Ranks() []RankBreakdown {
	if r.Timelines == nil {
		return nil
	}
	out := make([]RankBreakdown, 0, len(r.Timelines.Lines))
	for i := range r.Timelines.Lines {
		l := &r.Timelines.Lines[i]
		out = append(out, RankBreakdown{
			Rank:       l.Rank,
			Finish:     l.Finish,
			Compute:    l.TimeIn(timeline.Compute),
			Overhead:   l.TimeIn(timeline.Overhead),
			Send:       l.TimeIn(timeline.SendBlocked),
			Recv:       l.TimeIn(timeline.RecvBlocked),
			Wait:       l.TimeIn(timeline.WaitBlocked),
			Collective: l.TimeIn(timeline.CollBlocked),
		})
	}
	return out
}

// MaxBlockedFraction returns the largest per-rank blocked-time share, a
// platform-dependent measure of how communication-bound the execution is.
// Interval durations are integers, so summing a line's blocked intervals
// in one pass equals summing its RankBreakdown fields exactly.
func (r *Result) MaxBlockedFraction() float64 {
	if r.Total <= 0 || r.Timelines == nil {
		return 0
	}
	var worst float64
	for i := range r.Timelines.Lines {
		f := r.Timelines.Lines[i].BlockedTime().Seconds() / units.Duration(r.Total).Seconds()
		if f > worst {
			worst = f
		}
	}
	return worst
}

// MeanBlockedFraction returns the mean per-rank blocked-time share.
func (r *Result) MeanBlockedFraction() float64 {
	if r.Total <= 0 || r.Timelines == nil || len(r.Timelines.Lines) == 0 {
		return 0
	}
	var sum float64
	for i := range r.Timelines.Lines {
		sum += r.Timelines.Lines[i].BlockedTime().Seconds() / units.Duration(r.Total).Seconds()
	}
	return sum / float64(len(r.Timelines.Lines))
}

// replayerPool recycles replayers across Simulate calls, so the package-
// level entry point gets warm free lists for free — in a sweep every worker
// reuses scratch state from earlier grid points. Garbage collection empties
// the pool, so the first replay after a GC cycle builds a cold replayer.
// Building one is kept cheap (see addProcs, enqueue and transferArena.grow)
// instead of pinning idle replayers: pinned scratch raised peak RSS.
var replayerPool = sync.Pool{New: func() any { return newReplayer() }}

// Simulate replays the trace set on the platform. The platform is auto-
// sized to the rank count when its capacity is too small; MIPS 0 defers to
// the rate recorded in the trace. Simulate is a pure function of its
// arguments; internally it draws a pooled replayer, so repeated calls do
// not pay the scratch-allocation cost of a cold replayer.
func Simulate(ts *trace.Set, cfg machine.Config) (*Result, error) {
	return SimulatePar(ts, cfg, 0)
}

// SimulatePar is Simulate with the conservative-window parallel engine
// enabled at the given width: ranks are partitioned across min(par,
// nranks) shards that advance concurrently between barriers one lookahead
// apart. It engages only on eligible runs (at least 16 ranks, no
// collectives, a contention-free platform) and falls back to sequential
// otherwise. The result is identical to Simulate's; par <= 1 runs
// sequentially.
func SimulatePar(ts *trace.Set, cfg machine.Config, par int) (*Result, error) {
	r := replayerPool.Get().(*replayer)
	r.parallel = par
	res, err := r.Simulate(ts, cfg)
	r.parallel = 0
	replayerPool.Put(r)
	return res, err
}

// SimulateBatch replays the same trace set across many platform configs
// through one pooled warm replayer, writing one Summary per config into
// out. Trace validation and record attachment happen once, and no Result
// or timelines are assembled. On a config or model error it stops and
// returns how many leading points completed (out[:n] are valid) alongside
// the error. par enables the parallel engine per point, exactly as in
// SimulatePar.
func SimulateBatch(ts *trace.Set, cfgs []machine.Config, out []Summary, par int) (int, error) {
	r := replayerPool.Get().(*replayer)
	r.parallel = par
	n, err := r.SimulateBatch(ts, cfgs, out)
	r.parallel = 0
	replayerPool.Put(r)
	return n, err
}

// Event kinds of the replay model. A proc only ever receives evAdvance;
// transfers receive the network-phase kinds. The split delivery kinds
// exist only under the parallel engine, where the sender's and receiver's
// ranks may live on different shards: each side completes in its own
// shard at the same simulated instant.
const (
	evAdvance    des.Kind = iota // proc: resume the rank's state machine
	evDeliver                    // transfer: delivery completes (both sides)
	evWireDone                   // transfer: wire occupancy ends, resources free
	evDeliverDst                 // transfer: receiver-side delivery (parallel)
	evDeliverSrc                 // transfer: sender-side delivery (parallel)
)

// chanPair holds the two FIFOs of unmatched transfer halves for one
// directed channel: sends awaiting a receive and receives awaiting a send
// (at most one is non-empty). Pairs are indexed by the trace's dense
// channel ids (trace.Set.Channels), so a post finds its pair without
// hashing. The dirty flag marks pairs pushed to during the current run;
// reset clears only those instead of walking every channel.
type chanPair struct {
	send, recv chanQueue
	dirty      bool
}

// queueRoom is the capacity a channel queue starts with. Most queues never
// hold more, so a queue's first push carves its room from a shared block
// (see enqueue) and a cold replayer does not allocate per queue.
const queueRoom = 2

// reset drops any leftover halves (an aborted run) and rewinds both queues.
func (pr *chanPair) reset() {
	pr.send.reset()
	pr.recv.reset()
	pr.dirty = false
}

// chanQueue is a FIFO of unmatched transfer halves for one direction of a
// channel. Popped slots are nilled (no retention) and the backing array is
// rewound whenever the queue drains, so steady-state matching never
// allocates.
type chanQueue struct {
	items []*transfer
	head  int
}

func (q *chanQueue) push(t *transfer) { q.items = append(q.items, t) }

func (q *chanQueue) empty() bool { return q.head == len(q.items) }

func (q *chanQueue) pop() *transfer {
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return t
}

// reset drops any leftover halves (an aborted run) and rewinds the queue.
func (q *chanQueue) reset() {
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
}

// transfer is one point-to-point message moving through the network model.
// Before matching, the object represents whichever half was posted first.
// Transfers live in the replayer's arena and are recycled through its free
// list: refs counts the request-slot references (ISend/IRecv slots not yet
// consumed by Wait), and the object returns to the free list once
// delivered, fully matched, and unreferenced.
type transfer struct {
	sim              *replayer
	id               int32 // index in the owning transferArena, fixed for life
	src, dst, tag    int
	srcNode, dstNode int // hosting nodes, set when the send is posted
	size             units.Bytes
	local            bool
	eager            bool

	sendPosted, recvPosted bool
	started                bool
	// Delivery is tracked per side: the sender's rank reads deliveredSrc,
	// the receiver's reads deliveredDst. Sequential replay sets both at the
	// same instant (one flag split in two); the parallel engine sets each
	// from its own shard's delivery event, so neither side reads state the
	// other shard writes.
	deliveredSrc, deliveredDst bool

	// sendAt/recvAt record when each half was posted (the poster's local
	// clock). The transfer's start time is sendAt for eager sends and
	// max(sendAt, recvAt) for rendezvous — under the parallel engine the
	// matching shard's own clock may lag the true start time, so it must
	// be derived from these rather than from Now.
	sendAt, recvAt units.Time

	refs       int     // live request-slot references (sequential only)
	sender     *proc   // blocked rendezvous sender, resumed at delivery
	waiters    []*proc // receiver-side procs blocked on delivery
	srcWaiters []*proc // sender-side procs blocked on delivery (parallel)
}

// HandleEvent dispatches the transfer's typed events.
func (t *transfer) HandleEvent(k des.Kind) {
	switch k {
	case evDeliver:
		t.sim.deliver(t)
	case evWireDone:
		t.sim.wireDone(t)
	case evDeliverDst:
		par := t.sim.par
		par.views[par.shardOf(t.dst)].deliverDst(t)
	case evDeliverSrc:
		par := t.sim.par
		par.views[par.shardOf(t.src)].deliverSrc(t)
	default:
		t.sim.fail(fmt.Errorf("replay: transfer %d->%d received unknown event kind %d", t.src, t.dst, k))
	}
}

// transferArena owns every transfer a replayer has made, so each has a
// stable int32 id — its index in all — that pointer-free structures (the
// arbiter's queue, the free list) hold instead of the pointer. It never
// shrinks: recycled transfers are reused, so it stays at the peak number
// of transfers one run had in flight, rounded up to whole chunks.
type transferArena struct {
	all  []*transfer
	free []int32 // ids of the zeroed transfers ready for reuse
}

// take returns a zeroed transfer owned by sim, growing the arena when no
// freed one is left.
func (a *transferArena) take(sim *replayer) *transfer {
	if len(a.free) == 0 {
		a.grow()
	}
	n := len(a.free)
	t := a.all[a.free[n-1]]
	a.free = a.free[:n-1]
	t.sim = sim
	return t
}

// arenaChunk is how many transfers the arena adds at a time. A fixed
// chunk, not doubling, keeps the arena close to the peak: under the
// parallel engine every transfer of a run is out at once.
const arenaChunk = 128

// grow adds one chunk of transfers from one allocation, each with room for
// one waiter, so a cold replayer does not allocate per transfer.
func (a *transferArena) grow() {
	const n = arenaChunk
	chunk := make([]transfer, n)
	waiters := make([]*proc, n)
	base := int32(len(a.all))
	for i := range chunk {
		t := &chunk[i]
		t.id = base + int32(i)
		t.waiters = waiters[i : i : i+1]
		a.all = append(a.all, t)
	}
	for i := n - 1; i >= 0; i-- {
		a.free = append(a.free, base+int32(i))
	}
}

// put zeroes t (keeping its id and waiter capacity) and frees it. Zeroing
// in place and restoring the kept fields clears memory instead of copying
// a composite literal over it.
func (a *transferArena) put(t *transfer) {
	id, w, sw := t.id, t.waiters[:0], t.srcWaiters[:0]
	*t = transfer{}
	t.id, t.waiters, t.srcWaiters = id, w, sw
	a.free = append(a.free, id)
}

// reclaim frees every transfer still out after a run: the halves and
// requests a deadlock or model error stranded, and — under the parallel
// engine, which never recycles mid-run — all of them. Callers must first drop every
// other reference (request slots, channel queues, the arbiter, queued
// events). A run that recycled everything costs one comparison.
func (a *transferArena) reclaim() {
	if len(a.free) == len(a.all) {
		return
	}
	a.free = a.free[:0]
	for _, t := range a.all {
		a.put(t)
	}
}

// collSlot synchronizes one collective operation across ranks. Ranks find
// their slot by their per-rank collective counter; the trace validator
// guarantees all ranks agree on the sequence. Slots are pooled.
type collSlot struct {
	idx     int
	rec     trace.Record
	arrived int
	procs   []*proc
}

// replayer is a reusable trace replayer. It owns all replay scratch state —
// the DES engine and its queue, rank state machines, channel FIFOs, the
// transfer arena, collective slots — and recycles everything across
// Simulate calls, so a warm replayer's event loop runs without heap
// allocation. The zero value is not usable; create replayers with
// newReplayer. A replayer must not be used concurrently; the package-level
// Simulate draws from an internal pool and is safe for concurrent use.
type replayer struct {
	// parallel enables the conservative-window parallel engine: ranks are
	// partitioned across min(parallel, nranks) shards that advance
	// concurrently between barriers one lookahead apart. Results are
	// identical to sequential replay. It engages only when the run is
	// eligible (enough ranks, no collectives, a contention-free platform —
	// see parallelPlan); ineligible runs silently fall back to sequential.
	// 0 or 1 means sequential.
	parallel int
	// parThreshold overrides the rank count below which the parallel
	// engine declines to engage (window synchronization would cost more
	// than it saves). 0 means defaultParThreshold.
	parThreshold int

	eng  *des.Engine
	cfg  machine.Config
	mips units.MIPS

	procs  []*proc // reusable rank machines; procs[:nprocs] are active
	nprocs int
	finish []units.Time // per-rank finish instants (struct-of-arrays)
	done   []bool       // per-rank completion flags

	chans  []chanPair  // by channel id, sized to the current trace
	dirtyQ []int32     // ids of the pairs pushed to this run; the reset worklist
	qroom  []*transfer // unused rest of the block new queues take room from
	arb    arbiter     // bus and link arbitration (sequential engine)

	slots     map[int]*collSlot
	arena     transferArena // every transfer; the root's under the parallel engine
	freeSlots []*collSlot   // collective slot free list

	stats    NetworkStats
	err      error
	ranSteps int64 // DES events executed by the last run (all shards)

	// Parallel-engine state. On the root replayer par is nil and scratch
	// holds the reusable shard machinery; each shard runs through a view —
	// a replayer clone whose par/shard are set, whose eng and stats are
	// private, and whose matching state aliases the root's (guarded by
	// scratch.mu).
	par          *parState
	shard        int
	extraDeliver int64     // split deliveries scheduled by this shard
	skippedWire  int64     // wire events elided by this shard (see startPar)
	scratch      *parState // root only: reusable shard state
}

// newReplayer returns a replayer with cold scratch state.
func newReplayer() *replayer {
	return &replayer{
		eng:   des.New(),
		slots: map[int]*collSlot{},
	}
}

// Simulate replays the trace set on the platform; see the package-level
// Simulate for the model contract. The replayer's scratch state is reused,
// so after the first run on a trace shape the steady-state event loop does
// not allocate.
func (s *replayer) Simulate(ts *trace.Set, cfg machine.Config) (*Result, error) {
	if ts == nil || ts.NRanks() == 0 {
		return nil, fmt.Errorf("replay: empty trace set")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	collectives, err := ts.ValidateOnce()
	if err != nil {
		return nil, err
	}
	// Results never reference the trace records, so drop them on the way
	// out: an idle pooled replayer must not pin the last trace set it ran.
	defer s.dropRecs()
	windows, err := s.runPrepared(ts, cfg, collectives)
	if err != nil {
		return nil, err
	}

	// Result assembly is warm Simulate's entire allocation budget, so it
	// is packed hard: the Result and its timeline set share one block,
	// and every rank's intervals and events are carved out of two arenas
	// pre-sized with SnapshotBound — at most 4 allocations per run,
	// regardless of rank count (3 without markers). The handed-out
	// snapshot owns all of it; nothing aliases the builders.
	blk := &struct {
		res  Result
		tset timeline.Set
	}{}
	res, tset := &blk.res, &blk.tset
	res.Network = s.stats
	res.Steps = s.ranSteps
	res.Windows = windows
	tset.Name = ts.Name
	tset.Variant = ts.Variant
	tset.Lines = make([]timeline.Timeline, 0, s.nprocs)
	var nIv, nEv int
	for _, p := range s.procs[:s.nprocs] {
		iv, ev := p.tl.SnapshotBound()
		nIv, nEv = nIv+iv, nEv+ev
	}
	ivArena := make([]timeline.Interval, 0, nIv)
	var evArena []timeline.Event
	if nEv > 0 {
		evArena = make([]timeline.Event, 0, nEv)
	}
	for _, p := range s.procs[:s.nprocs] {
		finish := s.finish[p.rank]
		var line timeline.Timeline
		line, ivArena, evArena = p.tl.FinishInto(finish, ivArena, evArena)
		if finish > res.Total {
			res.Total = finish
		}
		tset.Lines = append(tset.Lines, line)
	}
	tset.Total = res.Total
	res.Timelines = tset
	if err := tset.Validate(); err != nil {
		return nil, fmt.Errorf("replay: internal timeline corruption: %w", err)
	}
	return res, nil
}

// runPrepared sizes the platform, resets the scratch state and executes
// the event loop — sequential or conservative-window parallel, whichever
// parallelPlan selects — leaving per-rank finish state, stats and step
// counts in place for the caller to assemble. The trace and config must
// already be validated; collectives is what validating the trace reported.
// It returns the number of window rounds (0 when sequential).
func (s *replayer) runPrepared(ts *trace.Set, cfg machine.Config, collectives bool) (int64, error) {
	if cfg.Capacity() < ts.NRanks() {
		cfg = cfg.WithNodes(ts.NRanks())
	}
	mips := cfg.MIPS
	if mips == 0 {
		mips = ts.MIPS
	}
	s.reset(ts, cfg, mips)
	var windows int64
	if shards, lookahead, ok := s.parallelPlan(collectives); ok {
		w, err := s.runParallel(shards, lookahead)
		if err != nil {
			return 0, err
		}
		windows = w
	} else {
		for _, p := range s.procs[:s.nprocs] {
			s.eng.ScheduleEvent(0, p, evAdvance)
		}
		if err := s.eng.Run(); err != nil {
			return 0, fmt.Errorf("replay: %w", err)
		}
		s.ranSteps = s.eng.Steps()
		s.stats.MaxPending = s.arb.maxPending
	}
	if s.err != nil {
		return 0, s.err
	}
	if err := s.checkAllFinished(); err != nil {
		return 0, err
	}
	return windows, nil
}

// dropRecs detaches the procs from the trace records so an idle pooled
// replayer does not pin the last trace set it ran.
func (s *replayer) dropRecs() {
	for _, p := range s.procs[:s.nprocs] {
		p.recs, p.ids = nil, nil
	}
}

// reset prepares the replayer for one run, recycling all scratch state. A
// preceding run that aborted mid-flight (deadlock, model error) may have
// left events, unmatched halves, open requests or collective slots behind,
// and a parallel run recycles no transfer itself; everything is cleared
// here rather than at the end of a run, so an errored replayer stays
// reusable, and every transfer goes back to the free list once nothing
// references it.
func (s *replayer) reset(ts *trace.Set, cfg machine.Config, mips units.MIPS) {
	s.eng.Reset()
	s.cfg = cfg
	s.mips = mips
	s.stats = NetworkStats{}
	s.err = nil
	s.arb.reset(&cfg)
	for _, ch := range s.dirtyQ {
		s.chans[ch].reset()
	}
	s.dirtyQ = s.dirtyQ[:0]
	clear(s.slots)
	// Every pair in the backing array is clean now, including any past the
	// current length, so resizing within capacity needs no clearing.
	chans := ts.Channels()
	if cap(s.chans) < chans.N {
		s.chans = make([]chanPair, chans.N)
	} else {
		s.chans = s.chans[:chans.N]
	}

	n := ts.NRanks()
	if len(s.procs) < n {
		s.addProcs(n)
	}
	s.nprocs = n
	s.finish = resizeZeroed(s.finish, n)
	s.done = resizeZeroed(s.done, n)
	// Request slots: only the slots a proc's last run posted can be
	// non-nil, so clearing those leaves its whole backing array nil and
	// resizing needs no clearing. Procs that need more room share one new
	// allocation.
	grow := 0
	for i, p := range s.procs[:n] {
		clear(p.reqs[:p.nextSlot])
		p.nextSlot = 0
		if k := int(chans.Slots[i]); cap(p.reqs) < k {
			grow += k
		}
	}
	var reqBuf []*transfer
	if grow > 0 {
		reqBuf = make([]*transfer, grow)
	}
	for i, p := range s.procs[:n] {
		p.rank = i
		p.recs = ts.Traces[i].Records
		p.ids = chans.IDs[i]
		p.pc = 0
		if k := int(chans.Slots[i]); cap(p.reqs) < k {
			p.reqs, reqBuf = reqBuf[:k:k], reqBuf[k:]
		} else {
			p.reqs = p.reqs[:k]
		}
		p.tl.Reset(i)
		p.collIdx = 0
		p.overheadPaid = false
	}
	// Idle procs past n may still hold slots; they are cleared above before
	// such a proc runs again, so reclaiming their transfers is safe.
	s.arena.reclaim()
}

// Timeline room: the interval and event capacity every new rank's
// timeline starts with, carved from one allocation each, so a cold
// replayer skips the first doublings of every timeline. A bound from the
// trace's records would overshoot: overlapped variants split bursts into
// pieces that merge back into one interval, up to 100x fewer intervals
// than records. Longer timelines grow as usual.
const (
	intervalRoom = 64
	eventRoom    = 8
)

// addProcs grows the replayer to n procs. A cold replayer would otherwise
// allocate per rank and per timeline doubling, so the new procs come from
// one allocation and their timelines' first room from two.
func (s *replayer) addProcs(n int) {
	ps := make([]proc, n-len(s.procs))
	ivs := make([]timeline.Interval, len(ps)*intervalRoom)
	evs := make([]timeline.Event, len(ps)*eventRoom)
	s.procs = slices.Grow(s.procs, len(ps))
	for j := range ps {
		p := &ps[j]
		p.sim = s
		p.tl.Provide(ivs[:0:intervalRoom], evs[:0:eventRoom])
		ivs, evs = ivs[intervalRoom:], evs[eventRoom:]
		s.procs = append(s.procs, p)
	}
}

// resizeZeroed returns a zero-filled slice of length n, reusing the
// given backing array when it is large enough.
func resizeZeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newTransfer draws a zeroed transfer from the arena. Under the parallel
// engine the arena belongs to the root (callers hold the matching lock)
// and mid-run recycling is disabled: the next reset reclaims the lot.
func (s *replayer) newTransfer(src, dst, tag int) *transfer {
	owner := s
	if s.par != nil {
		owner = s.par.root
	}
	t := owner.arena.take(s)
	t.src, t.dst, t.tag = src, dst, tag
	return t
}

// maybeRelease recycles a transfer once nothing can reference it again:
// delivered, matched on both sides (so it sits in no channel queue), no
// live request-slot references, and nobody blocked on it. The parallel
// engine never recycles mid-run (reference counts would race across
// shards); the next reset reclaims everything instead.
func (s *replayer) maybeRelease(t *transfer) {
	if s.par != nil {
		return
	}
	if t.deliveredSrc && t.deliveredDst && t.sendPosted && t.recvPosted && t.refs == 0 && t.sender == nil && len(t.waiters) == 0 {
		s.arena.put(t)
	}
}

func (s *replayer) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.eng.Stop()
}

func (s *replayer) checkAllFinished() error {
	var stuck []string
	for _, p := range s.procs[:s.nprocs] {
		if !s.done[p.rank] {
			desc := "at end of trace"
			if p.pc < len(p.recs) {
				desc = fmt.Sprintf("record %d (%s)", p.pc, p.recs[p.pc])
			} else if p.pc > 0 {
				desc = fmt.Sprintf("after record %d (%s)", p.pc-1, p.recs[p.pc-1])
			}
			stuck = append(stuck, fmt.Sprintf("rank %d blocked %s", p.rank, desc))
			if len(stuck) >= 8 {
				break
			}
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	msg := stuck[0]
	for _, x := range stuck[1:] {
		msg += "; " + x
	}
	return fmt.Errorf("replay: deadlock: %s", msg)
}

// proc is one rank's replay state machine. Completion state lives in the
// replayer's finish/done arrays (struct-of-arrays: the batch and parallel
// paths scan those without touching the procs). Under the parallel engine
// sim points at the shard view owning this rank for the duration of a run.
type proc struct {
	rank int
	recs []trace.Record
	// ids holds each record's channel, or for a Wait its request slot
	// (trace.Set.Channels).
	ids []int32
	pc  int
	// reqs holds the open waited requests by slot: the k-th waited ISend
	// or IRecv of the run writes slot k, and its Wait reads and nils it.
	reqs         []*transfer
	nextSlot     int32
	tl           timeline.Builder
	sim          *replayer
	collIdx      int
	overheadPaid bool // the CPU overhead of recs[pc] has been charged
}

// HandleEvent resumes the rank's state machine; a proc's only event kind is
// evAdvance.
func (p *proc) HandleEvent(des.Kind) { p.advance() }

// payOverhead charges the per-message CPU overhead for the posting record
// at p.pc. It returns true when the proc must yield (the overhead occupies
// the CPU and advance resumes at the same record afterwards).
func (p *proc) payOverhead() bool {
	s := p.sim
	if s.cfg.CPUOverhead <= 0 {
		return false
	}
	if p.overheadPaid {
		p.overheadPaid = false
		return false
	}
	p.overheadPaid = true
	p.tl.Enter(s.eng.Now(), timeline.Overhead)
	s.eng.ScheduleEventAfter(s.cfg.CPUOverhead, p, evAdvance)
	return true
}

// hold puts the transfer of a request some later Wait consumes in the
// rank's next request slot. A request no Wait consumes is not held, so its
// transfer is recycled once delivered.
func (p *proc) hold(t *transfer) {
	p.reqs[p.nextSlot] = t
	p.nextSlot++
	if p.sim.par == nil {
		t.refs++ // recycling is off under the parallel engine
	}
}

// advance executes records until the rank blocks or its trace ends.
func (p *proc) advance() {
	s := p.sim
	for p.pc < len(p.recs) {
		rec := &p.recs[p.pc]
		switch rec.Kind {
		case trace.KindBurst:
			p.pc++
			dur := s.mips.BurstDuration(rec.Instr)
			if dur <= 0 {
				continue
			}
			p.tl.Enter(s.eng.Now(), timeline.Compute)
			s.eng.ScheduleEventAfter(dur, p, evAdvance)
			return

		case trace.KindMarker:
			p.tl.Mark(s.eng.Now(), rec.Phase)
			p.pc++

		case trace.KindISend:
			if p.payOverhead() {
				return
			}
			p.pc++
			ch, waited := trace.PostChannel(p.ids[p.pc-1])
			t := s.postSend(p.rank, rec, ch)
			if waited {
				p.hold(t)
			}

		case trace.KindSend:
			if p.payOverhead() {
				return
			}
			p.pc++
			t := s.postSend(p.rank, rec, p.ids[p.pc-1])
			if !t.eager && !t.deliveredSrc {
				t.sender = p
				p.tl.Enter(s.eng.Now(), timeline.SendBlocked)
				return
			}

		case trace.KindIRecv:
			if p.payOverhead() {
				return
			}
			p.pc++
			ch, waited := trace.PostChannel(p.ids[p.pc-1])
			t := s.postRecv(p.rank, rec, ch)
			if waited {
				p.hold(t)
			} else {
				s.maybeRelease(t) // an eager send may have delivered already
			}

		case trace.KindRecv:
			if p.payOverhead() {
				return
			}
			p.pc++
			t := s.postRecv(p.rank, rec, p.ids[p.pc-1])
			if !t.deliveredDst {
				t.waiters = append(t.waiters, p)
				p.tl.Enter(s.eng.Now(), timeline.RecvBlocked)
				return
			}
			s.maybeRelease(t)

		case trace.KindWait:
			slot := p.ids[p.pc]
			var t *transfer
			if slot >= 0 {
				t = p.reqs[slot]
			}
			if t == nil {
				s.fail(fmt.Errorf("replay: rank %d waits for unknown request %d", p.rank, rec.Req))
				return
			}
			p.pc++
			// The trace validator guarantees each request is waited at most
			// once, so the slot can be consumed here.
			p.reqs[slot] = nil
			if s.par == nil {
				t.refs--
			}
			// A Wait may sit on either side of the transfer: on an ISend
			// request this proc is the sender, on an IRecv the receiver.
			// Each side blocks on its own delivery flag and waiter list so
			// shards never touch each other's.
			onSrc := p.rank == t.src && p.rank != t.dst
			var delivered bool
			if onSrc {
				delivered = t.deliveredSrc
			} else {
				delivered = t.deliveredDst // never read from the src shard
			}
			if !delivered {
				if s.par != nil && onSrc {
					t.srcWaiters = append(t.srcWaiters, p)
				} else {
					t.waiters = append(t.waiters, p)
				}
				p.tl.Enter(s.eng.Now(), timeline.WaitBlocked)
				return
			}
			s.maybeRelease(t)

		case trace.KindCollective:
			if s.par != nil {
				// parallelPlan refuses traces with collectives; reaching
				// one here means the eligibility scan is broken.
				s.fail(fmt.Errorf("replay: internal: collective reached the parallel engine"))
				return
			}
			p.pc++
			slot, ok := s.slots[p.collIdx]
			if !ok {
				slot = s.newSlot(p.collIdx, *rec)
				s.slots[p.collIdx] = slot
			}
			p.collIdx++
			slot.arrived++
			slot.procs = append(slot.procs, p)
			p.tl.Enter(s.eng.Now(), timeline.CollBlocked)
			if slot.arrived == s.nprocs {
				s.releaseCollective(slot)
			}
			return

		default:
			s.fail(fmt.Errorf("replay: rank %d record %d has unknown kind %v", p.rank, p.pc, rec.Kind))
			return
		}
	}
	s.done[p.rank] = true
	s.finish[p.rank] = s.eng.Now()
}

// newSlot draws a collective slot from the free list.
func (s *replayer) newSlot(idx int, rec trace.Record) *collSlot {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots[n-1] = nil
		s.freeSlots = s.freeSlots[:n-1]
		slot.idx, slot.rec, slot.arrived = idx, rec, 0
		return slot
	}
	return &collSlot{idx: idx, rec: rec}
}

// releaseCollective charges the platform's collective cost, resumes all
// participants and recycles the slot.
func (s *replayer) releaseCollective(slot *collSlot) {
	cost := s.cfg.CollectiveCost(slot.rec.Coll, slot.rec.Size, s.nprocs)
	s.stats.Collectives++
	delete(s.slots, slot.idx)
	for _, p := range slot.procs {
		s.eng.ScheduleEventAfter(cost, p, evAdvance)
	}
	slot.procs = slot.procs[:0]
	s.freeSlots = append(s.freeSlots, slot)
}

// enqueue appends the transfer to one of channel ch's queues, marking the
// pair for the next reset. The reset worklist and the block new queues take
// their room from always live on the root replayer: shard views share one
// set of matching state.
func (s *replayer) enqueue(ch int32, q *chanQueue, t *transfer) {
	owner := s
	if s.par != nil {
		owner = s.par.root
	}
	if pr := &s.chans[ch]; !pr.dirty {
		pr.dirty = true
		owner.dirtyQ = append(owner.dirtyQ, ch)
	}
	if cap(q.items) == 0 {
		if len(owner.qroom) < queueRoom {
			owner.qroom = make([]*transfer, 256*queueRoom)
		}
		q.items, owner.qroom = owner.qroom[:0:queueRoom], owner.qroom[queueRoom:]
	}
	q.push(t)
}

// claimStart is the parallel engine's start gate, called with the matching
// lock held: the shard whose post completes the protocol claims the right
// to route the transfer into the network, so exactly one shard calls
// startPar — after releasing the lock (the routing only touches the
// claiming shard's engine and the window inboxes, which have their own
// synchronization).
func (s *replayer) claimStart(t *transfer) bool {
	if t.started || !t.sendPosted || (!t.eager && !t.recvPosted) {
		return false
	}
	t.started = true
	t.sim = s // wire/delivery events for t route through the claiming shard
	return true
}

// postSend matches or enqueues the sender half of a transfer on channel
// ch, the record's channel id. Matching state is shared across shards
// under the parallel engine; one lock serializes both post paths (FIFO
// pairing stays deterministic because a directed channel's sends all come
// from one rank and its receives from one rank, each replayed in program
// order).
func (s *replayer) postSend(src int, rec *trace.Record, ch int32) *transfer {
	par := s.par != nil
	if par {
		s.par.mu.Lock()
	}
	pr := &s.chans[ch]
	var t *transfer
	if q := &pr.recv; !q.empty() {
		t = q.pop()
	} else {
		t = s.newTransfer(src, rec.Peer, rec.Tag)
		s.enqueue(ch, &pr.send, t)
	}
	t.sendPosted = true
	t.sendAt = s.eng.Now()
	t.size = rec.Size
	t.srcNode, t.dstNode = s.nodeOf(src), s.nodeOf(rec.Peer)
	t.local = t.srcNode == t.dstNode
	t.eager = s.cfg.Eager(rec.Size)
	if par {
		start := s.claimStart(t)
		s.par.mu.Unlock()
		if start {
			s.startPar(t)
		}
		return t
	}
	s.maybeStart(t)
	return t
}

// postRecv matches or enqueues the receiver half of a transfer on channel
// ch.
func (s *replayer) postRecv(dst int, rec *trace.Record, ch int32) *transfer {
	par := s.par != nil
	if par {
		s.par.mu.Lock()
	}
	pr := &s.chans[ch]
	var t *transfer
	if q := &pr.send; !q.empty() {
		t = q.pop()
	} else {
		t = s.newTransfer(rec.Peer, dst, rec.Tag)
		t.size = rec.Size
		s.enqueue(ch, &pr.recv, t)
	}
	t.recvPosted = true
	t.recvAt = s.eng.Now()
	if par {
		start := s.claimStart(t)
		s.par.mu.Unlock()
		if start {
			s.startPar(t)
		}
		return t
	}
	s.maybeStart(t)
	return t
}

// nodeOf is machine.Config.NodeOf read through the replayer: calling the
// value-receiver method on s.cfg copies the whole config. Validated
// configs have a positive RanksPerNode.
func (s *replayer) nodeOf(rank int) int { return rank / s.cfg.RanksPerNode }

// maybeStart checks protocol readiness and routes the transfer into the
// network: local transfers bypass resources; remote ones go to the
// arbiter for links and a bus. Sequential engine only — the parallel
// engine gates starts through claimStart/startPar, which derive delivery
// from the recorded post instants because the matching shard's clock may
// lag the transfer's true start time.
func (s *replayer) maybeStart(t *transfer) {
	if t.started {
		return
	}
	if !t.sendPosted {
		return // receive posted first; wait for the sender
	}
	if !t.eager && !t.recvPosted {
		return // rendezvous: transfer starts only once the receive exists
	}
	t.started = true
	if t.local {
		d := s.cfg.LocalLatency + s.cfg.LocalBandwidth.TransferTime(t.size)
		s.eng.ScheduleEventAfter(d, t, evDeliver)
		return
	}
	if s.arb.arrive(t) {
		s.startRemote(t)
	}
}

// startRemote schedules the wire phase of a transfer the arbiter just
// granted its resources. Resources are held for the wire time; delivery
// happens one latency later (the latency models end-point overheads, not
// bus occupancy).
func (s *replayer) startRemote(t *transfer) {
	wire := s.cfg.Bandwidth.TransferTime(t.size)
	s.stats.BusTime += wire
	s.eng.ScheduleEventAfter(wire, t, evWireDone)
}

// wireDone releases the transfer's resources, schedules the delivery one
// latency later, and starts the queued transfers the freed resources
// admit. Only the sequential engine schedules wire events; the parallel
// engine holds no resources (it requires a contention-free platform) and
// folds the wire time into the delivery instant directly (see startPar).
func (s *replayer) wireDone(t *transfer) {
	started := s.arb.release(t, s.arena.all)
	s.eng.ScheduleEventAfter(s.cfg.Latency, t, evDeliver)
	for _, q := range started {
		s.startRemote(q)
	}
}

// deliver completes the transfer and resumes everything blocked on it.
// Sequential replay and the parallel same-shard case both come through
// here; srcWaiters is only ever populated under the parallel engine.
func (s *replayer) deliver(t *transfer) {
	t.deliveredSrc, t.deliveredDst = true, true
	s.stats.Transfers++
	s.stats.Bytes += t.size
	if t.local {
		s.stats.LocalTransfers++
	}
	if t.sender != nil {
		p := t.sender
		t.sender = nil
		p.advance()
	}
	for _, p := range t.srcWaiters {
		p.advance()
	}
	t.srcWaiters = t.srcWaiters[:0]
	for _, p := range t.waiters {
		p.advance()
	}
	t.waiters = t.waiters[:0]
	s.maybeRelease(t)
}
