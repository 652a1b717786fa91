// Package analytic implements the theoretical baseline the paper improves
// on: the Sancho et al. (SC'06) estimate of overlap potential, which models
// an application as one iterative loop with a computation time and a
// communication volume, and *assumes* ideal sequential computation
// patterns.
//
// The simulation environment exists precisely because this model misses
// real execution properties; the B1 experiment compares its closed-form
// predictions with the simulated results, reproducing the paper's
// methodological argument.
package analytic

import (
	"fmt"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// Model is the one-loop application abstraction: per critical-path process,
// how long it computes and how much it communicates.
type Model struct {
	// Compute is the per-process computation time on the modeled CPU.
	Compute units.Duration
	// Volume is the per-process outgoing communication volume.
	Volume units.Bytes
	// Messages is the per-process outgoing message count (each pays the
	// network latency).
	Messages int
}

// FromStats derives the model from trace statistics, taking the worst
// (critical-path) rank for each quantity, at the given CPU speed.
func FromStats(st trace.SetStats, mips units.MIPS) Model {
	var m Model
	m.Compute = mips.BurstDuration(st.MaxRankInstr)
	for _, r := range st.Ranks {
		if r.BytesSent > m.Volume {
			m.Volume = r.BytesSent
		}
		if r.MessagesSent > m.Messages {
			m.Messages = r.MessagesSent
		}
	}
	return m
}

// CommTime is the serialized communication cost on the platform:
// messages*latency + volume/bandwidth.
func (m Model) CommTime(cfg machine.Config) units.Duration {
	return units.Duration(m.Messages)*cfg.Latency + cfg.Bandwidth.TransferTime(m.Volume)
}

// OriginalTime models the non-overlapped execution: compute plus
// communication, fully serialized.
func (m Model) OriginalTime(cfg machine.Config) units.Duration {
	return m.Compute + m.CommTime(cfg)
}

// OverlappedTime models perfect automatic overlap with ideal patterns:
// communication hides behind computation, so the loop costs the larger of
// the two.
func (m Model) OverlappedTime(cfg machine.Config) units.Duration {
	comm := m.CommTime(cfg)
	if comm > m.Compute {
		return comm
	}
	return m.Compute
}

// Speedup is the predicted benefit of automatic overlap on the platform:
// original over overlapped time. It peaks at 2.0 when communication equals
// computation.
func (m Model) Speedup(cfg machine.Config) float64 {
	over := m.OverlappedTime(cfg)
	if over <= 0 {
		return 1
	}
	return float64(m.OriginalTime(cfg)) / float64(over)
}

// IntermediateBandwidth returns the bandwidth at which communication time
// equals computation time — the paper's "intermediate" regime where the
// overlap benefit peaks. ok is false when no finite bandwidth achieves it
// (the latency floor alone exceeds the computation time).
func (m Model) IntermediateBandwidth(cfg machine.Config) (units.Bandwidth, bool) {
	latency := units.Duration(m.Messages) * cfg.Latency
	wire := m.Compute - latency
	if wire <= 0 || m.Volume <= 0 {
		return 0, false
	}
	return units.Bandwidth(float64(m.Volume) / wire.Seconds()), true
}

// IntermediateLatency is the latency-axis analog of IntermediateBandwidth:
// the network latency at which communication time equals computation time
// on the given platform's bandwidth — where the overlap benefit peaks when
// a sweep varies latency instead of bandwidth. ok is false when no
// positive latency achieves it (the wire time alone already exceeds the
// computation time, or the model sends no messages). The sweep's surrogate
// planner uses it to place an anchor replay at the predicted knee of a
// latency family.
func (m Model) IntermediateLatency(cfg machine.Config) (units.Duration, bool) {
	budget := m.Compute - cfg.Bandwidth.TransferTime(m.Volume)
	if budget <= 0 || m.Messages <= 0 {
		return 0, false
	}
	return budget / units.Duration(m.Messages), true
}

// String summarizes the model.
func (m Model) String() string {
	return fmt.Sprintf("analytic{compute=%v, volume=%v, messages=%d}", m.Compute, m.Volume, m.Messages)
}
