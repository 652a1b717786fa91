package analytic

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"overlapsim/internal/machine"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// testMachine: zero-latency except where stated, explicit bandwidth.
func testMachine(l units.Duration, bw units.Bandwidth) machine.Config {
	c := machine.Default()
	c.Latency = l
	c.Bandwidth = bw
	return c
}

func TestFromStatsTakesCriticalPath(t *testing.T) {
	s := trace.NewSet("x", "original", 2, 1000)
	s.Traces[0].Append(trace.Burst(1000), trace.Send(1, 0, 100), trace.Send(1, 1, 100))
	s.Traces[1].Append(trace.Burst(9000), trace.Recv(0, 0, 100), trace.Recv(0, 1, 100))
	m := FromStats(trace.Stats(s), 1000)
	if m.Compute != 9*units.Microsecond {
		t.Errorf("Compute = %v, want 9us (max rank)", m.Compute)
	}
	if m.Volume != 200 || m.Messages != 2 {
		t.Errorf("Volume/Messages = %v/%d, want 200/2", m.Volume, m.Messages)
	}
}

func TestTimesAndSpeedup(t *testing.T) {
	m := Model{Compute: 100 * units.Microsecond, Volume: 100 * units.KB, Messages: 2}
	cfg := testMachine(5*units.Microsecond, units.Bandwidth(units.GB)) // ~0.1us/KB
	comm := m.CommTime(cfg)
	// 2*5us + 100KB/1GB/s = 10us + ~95.4us.
	if comm < 100*units.Microsecond || comm > 110*units.Microsecond {
		t.Errorf("CommTime = %v", comm)
	}
	orig, over := m.OriginalTime(cfg), m.OverlappedTime(cfg)
	if orig != m.Compute+comm {
		t.Errorf("OriginalTime = %v", orig)
	}
	if over != comm { // comm slightly exceeds compute here
		t.Errorf("OverlappedTime = %v, want %v", over, comm)
	}
	s := m.Speedup(cfg)
	if s < 1.9 || s > 2.0 {
		t.Errorf("Speedup at comm~=comp should approach 2, got %v", s)
	}
}

func TestSpeedupLimitsAtExtremes(t *testing.T) {
	m := Model{Compute: 100 * units.Microsecond, Volume: units.MB, Messages: 1}
	// Very fast network: comm negligible, speedup -> 1.
	fast := m.Speedup(testMachine(0, 1e6*units.GBPerSec))
	if fast > 1.01 {
		t.Errorf("speedup at infinite bandwidth = %v, want ~1", fast)
	}
	// Very slow network: comm dominates, speedup -> 1.
	slow := m.Speedup(testMachine(0, 10*units.KBPerSec))
	if slow > 1.01 {
		t.Errorf("speedup at tiny bandwidth = %v, want ~1", slow)
	}
}

func TestIntermediateBandwidth(t *testing.T) {
	m := Model{Compute: 1000 * units.Microsecond, Volume: units.MB, Messages: 10}
	cfg := testMachine(10*units.Microsecond, 0)
	bw, ok := m.IntermediateBandwidth(cfg)
	if !ok {
		t.Fatal("expected an intermediate bandwidth")
	}
	// At that bandwidth comm time equals compute time.
	at := cfg.WithBandwidth(bw)
	comm := m.CommTime(at)
	diff := math.Abs(float64(comm-m.Compute)) / float64(m.Compute)
	if diff > 0.01 {
		t.Errorf("comm %v != compute %v at intermediate bandwidth %v", comm, m.Compute, bw)
	}
	// Latency floor above compute: impossible.
	m2 := Model{Compute: 5 * units.Microsecond, Volume: units.MB, Messages: 10}
	if _, ok := m2.IntermediateBandwidth(cfg); ok {
		t.Error("latency-floored model should have no intermediate bandwidth")
	}
}

func TestPropertySpeedupBounds(t *testing.T) {
	// The analytic speedup is always in [1, 2]: overlap can at most halve
	// the loop when comm == comp.
	f := func(cU, vU uint32, msgU uint8) bool {
		m := Model{
			Compute:  units.Duration(cU%1e6) + 1,
			Volume:   units.Bytes(vU % (1 << 22)),
			Messages: int(msgU % 32),
		}
		cfg := testMachine(units.Microsecond, 100*units.MBPerSec)
		s := m.Speedup(cfg)
		return s >= 1.0-1e-9 && s <= 2.0+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	m := Model{Compute: units.Microsecond, Volume: units.KB, Messages: 3}
	if s := m.String(); !strings.Contains(s, "messages=3") {
		t.Errorf("String = %q", s)
	}
}
