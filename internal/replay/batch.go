package replay

import (
	"fmt"

	"overlapsim/internal/machine"
	"overlapsim/internal/timeline"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// Summary is the cheap per-point outcome of SimulateBatch: exactly the
// fields a sweep consumes, derived without materializing Result, Timelines
// or RankBreakdowns. Every field matches the corresponding Simulate output
// bit for bit — Blocked replicates Result.MeanBlockedFraction's float
// arithmetic term by term.
type Summary struct {
	Total   units.Time // simulated runtime (max rank finish)
	Steps   int64      // DES events executed
	Blocked float64    // mean per-rank blocked-time fraction
	Windows int64      // conservative-window rounds (0 when sequential)
}

// simulateSummaryPrepared runs one prepared point and summarizes it from
// the replayer's struct-of-arrays finish state and the still-open timeline
// builders (StateDurations reads them without closing or copying).
func (s *replayer) simulateSummaryPrepared(ts *trace.Set, cfg machine.Config, collectives bool) (Summary, error) {
	windows, err := s.runPrepared(ts, cfg, collectives)
	if err != nil {
		return Summary{}, err
	}
	sum := Summary{Steps: s.ranSteps, Windows: windows}
	n := s.nprocs
	for _, f := range s.finish[:n] {
		if f > sum.Total {
			sum.Total = f
		}
	}
	if sum.Total > 0 && n > 0 {
		// Term-by-term replication of Result.MeanBlockedFraction: the
		// blocked states sum as integers per rank, each rank contributes
		// one division, ranks accumulate in rank order.
		denom := units.Duration(sum.Total).Seconds()
		var acc float64
		for _, p := range s.procs[:n] {
			d := p.tl.StateDurations(s.finish[p.rank])
			blocked := d[timeline.SendBlocked] + d[timeline.RecvBlocked] +
				d[timeline.WaitBlocked] + d[timeline.CollBlocked]
			acc += blocked.Seconds() / denom
		}
		sum.Blocked = acc / float64(n)
	}
	return sum, nil
}

// SimulateBatch is the package-level SimulateBatch on this replayer: only
// the platform-dependent reset and the event loop run per config.
func (s *replayer) SimulateBatch(ts *trace.Set, cfgs []machine.Config, out []Summary) (int, error) {
	if len(out) < len(cfgs) {
		return 0, fmt.Errorf("replay: batch output holds %d summaries for %d configs", len(out), len(cfgs))
	}
	if ts == nil || ts.NRanks() == 0 {
		return 0, fmt.Errorf("replay: empty trace set")
	}
	collectives, err := ts.ValidateOnce()
	if err != nil {
		return 0, err
	}
	defer s.dropRecs()
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return i, fmt.Errorf("replay: batch point %d: %w", i, err)
		}
		sum, err := s.simulateSummaryPrepared(ts, cfg, collectives)
		if err != nil {
			return i, fmt.Errorf("replay: batch point %d: %w", i, err)
		}
		out[i] = sum
	}
	return len(cfgs), nil
}
