package replay

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
)

// refArbiter is the contention arbitration the replayer used before the
// arbiter existed: every arrival and every release rescans the whole
// pending queue. drainPending and resourcesFree are kept verbatim, so the
// differential test below checks the arbiter's fast paths against the
// plain FIFO-with-skip definition.
type refArbiter struct {
	cfg     machine.Config
	pending []*transfer
	outUse  []int
	inUse   []int
	busUse  int
	stats   NetworkStats
	log     []int // tags of started transfers, in start order
}

func newRefArbiter(cfg machine.Config) *refArbiter {
	return &refArbiter{cfg: cfg, outUse: make([]int, cfg.Nodes), inUse: make([]int, cfg.Nodes)}
}

// arrive is the queueing half of the old maybeStart.
func (s *refArbiter) arrive(t *transfer) {
	s.pending = append(s.pending, t)
	if len(s.pending) > s.stats.MaxPending {
		s.stats.MaxPending = len(s.pending)
	}
	s.drainPending()
}

// release is the resource half of the old wireDone.
func (s *refArbiter) release(t *transfer) {
	srcNode, dstNode := s.cfg.NodeOf(t.src), s.cfg.NodeOf(t.dst)
	s.outUse[srcNode]--
	s.inUse[dstNode]--
	s.busUse--
	s.drainPending()
}

// startRemote is the occupancy half of the old startRemote; it logs the
// start instead of scheduling the wire phase.
func (s *refArbiter) startRemote(t *transfer) {
	srcNode, dstNode := s.cfg.NodeOf(t.src), s.cfg.NodeOf(t.dst)
	s.outUse[srcNode]++
	s.inUse[dstNode]++
	s.busUse++
	s.log = append(s.log, t.tag)
}

// resourcesFree reports whether the transfer can occupy its links and a bus.
func (s *refArbiter) resourcesFree(t *transfer) bool {
	srcNode, dstNode := s.cfg.NodeOf(t.src), s.cfg.NodeOf(t.dst)
	if s.cfg.OutLinks > 0 && s.outUse[srcNode] >= s.cfg.OutLinks {
		return false
	}
	if s.cfg.InLinks > 0 && s.inUse[dstNode] >= s.cfg.InLinks {
		return false
	}
	if s.cfg.Buses > 0 && s.busUse >= s.cfg.Buses {
		return false
	}
	return true
}

// drainPending starts every queued transfer whose resources are free, in
// FIFO order with skipping (a blocked head does not stall unrelated pairs).
func (s *refArbiter) drainPending() {
	remaining := s.pending[:0]
	for _, t := range s.pending {
		if s.resourcesFree(t) {
			s.startRemote(t)
		} else {
			remaining = append(remaining, t)
		}
	}
	s.pending = remaining
}

// randomArbiterPlatform draws a small platform: 0-3 buses (0 unlimited),
// 0-2 links each way, 1-6 nodes of 1-3 ranks.
func randomArbiterPlatform(rng *rand.Rand) machine.Config {
	c := machine.Default()
	c.Buses = rng.Intn(4)
	c.InLinks = rng.Intn(3)
	c.OutLinks = rng.Intn(3)
	c.Nodes = 1 + rng.Intn(6)
	c.RanksPerNode = 1 + rng.Intn(3)
	return c
}

// TestArbiterMatchesRescan drives the arbiter and the rescanning reference
// with the same seeded sequences of arrivals and releases and requires the
// same transfers to start in the same order after every operation, the
// same queue and the same peak queue length. Transfers are registered in a
// transferArena, as the replayer's are, and the queue is read through
// their ids.
func TestArbiterMatchesRescan(t *testing.T) {
	const sequences, ops = 3000, 120
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		cfg := randomArbiterPlatform(rng)
		ref := newRefArbiter(cfg)
		var arb arbiter
		arb.reset(&cfg)
		var arena transferArena
		var log, active []*transfer
		nranks := cfg.Capacity()
		for op := 0; op < ops; op++ {
			before := len(ref.log)
			if len(active) > 0 && rng.Intn(5) < 2 {
				k := rng.Intn(len(active))
				tr := active[k]
				active = slices.Delete(active, k, k+1)
				ref.release(tr)
				started := arb.release(tr, arena.all)
				log = append(log, started...)
				active = append(active, started...)
			} else {
				src, dst := rng.Intn(nranks), rng.Intn(nranks)
				tr := arena.take(nil)
				tr.src, tr.dst, tr.tag = src, dst, op
				tr.srcNode, tr.dstNode = cfg.NodeOf(src), cfg.NodeOf(dst)
				ref.arrive(tr)
				if arb.arrive(tr) {
					log = append(log, tr)
					active = append(active, tr)
				}
			}
			if got, want := tags(log[before:]), ref.log[before:]; !slices.Equal(got, want) {
				t.Fatalf("seq %d op %d (%+v): started %v, reference started %v",
					seq, op, platformLimits(cfg), got, want)
			}
		}
		queue := make([]*transfer, len(arb.pending))
		for i, id := range arb.pending {
			queue[i] = arena.all[id]
		}
		if !slices.Equal(tags(queue), tags(ref.pending)) {
			t.Fatalf("seq %d: queue %v, reference queue %v", seq, tags(queue), tags(ref.pending))
		}
		if arb.maxPending != ref.stats.MaxPending {
			t.Fatalf("seq %d: MaxPending %d, reference %d", seq, arb.maxPending, ref.stats.MaxPending)
		}
	}
}

func tags(ts []*transfer) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = t.tag
	}
	return out
}

func platformLimits(c machine.Config) string {
	return fmt.Sprintf("buses=%d in=%d out=%d nodes=%d rpn=%d", c.Buses, c.InLinks, c.OutLinks, c.Nodes, c.RanksPerNode)
}

// contendedSet traces the benchmark workload once per process: CG's
// overlapped variant at 16 chunks, the paper-cold shape whose chunked
// transfers queue deepest on the default platform.
var contendedSet = sync.OnceValues(func() (*trace.Set, error) {
	app, err := apps.New("cg", apps.Config{})
	if err != nil {
		return nil, err
	}
	ps, err := tracer.Trace(app, tracer.Options{})
	if err != nil {
		return nil, err
	}
	return overlap.Transform(ps, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear, Chunks: 16})
})

// BenchmarkReplayContended times the warm summary replay of a paper-shaped
// trace on machine.Default (8 buses, one link each way per node), where
// contention arbitration is most of the per-event cost.
func BenchmarkReplayContended(b *testing.B) {
	ts, err := contendedSet()
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []machine.Config{machine.Default()}
	out := make([]Summary, 1)
	r := newReplayer()
	if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
		b.Fatal(err)
	}
	if r.stats.MaxPending < 2 {
		b.Fatal("benchmark workload queued no transfer")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.SimulateBatch(ts, cfgs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*out[0].Steps), "ns/step")
}
