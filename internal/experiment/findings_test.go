package experiment

import (
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/overlap"
	"overlapsim/internal/stats"
	"overlapsim/internal/units"
)

// TestFindingsShapeFullScale regenerates the paper's three findings at the
// full default workload sizes and asserts the *shapes* the paper reports —
// the repository's headline claim. It is the slowest test in the suite
// (a few hundred milliseconds) and is skipped under -short.
func TestFindingsShapeFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale findings check skipped in short mode")
	}
	s := NewSuite()

	type appResult struct {
		real, ideal float64 // percent gains at intermediate bandwidth
	}
	results := map[string]appResult{}
	for _, name := range paperAppsOf(s) {
		st, err := s.Study(name)
		if err != nil {
			t.Fatal(err)
		}
		bw, err := IntermediateBandwidth(st, s.Machine)
		if err != nil {
			t.Fatal(err)
		}
		m := s.Machine.WithBandwidth(bw)
		real, err := speedup(st, m, bothReal)
		if err != nil {
			t.Fatal(err)
		}
		ideal, err := speedup(st, m, bothLinear)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = appResult{stats.PercentGain(real), stats.PercentGain(ideal)}
	}

	// Finding 1: real-pattern gains are negligible everywhere (paper:
	// "the potential for automatic overlap in the applications is
	// negligible") while ideal-pattern gains are not.
	for name, r := range results {
		if r.real > 10 {
			t.Errorf("finding 1 violated: %s real-pattern gain = %+.1f%%, want <= 10%%", name, r.real)
		}
	}

	// Finding 2 shapes: sweep3d dominates everything; the big-message
	// exchange codes (alya, specfem) clearly beat the collective/latency
	// bound codes (cg, pop); bt lands in between.
	if results["sweep3d"].ideal < 100 {
		t.Errorf("sweep3d ideal gain = %+.1f%%, want > 100%%", results["sweep3d"].ideal)
	}
	for _, other := range []string{"bt", "cg", "pop", "alya", "specfem"} {
		if results["sweep3d"].ideal <= results[other].ideal {
			t.Errorf("sweep3d (%.1f%%) should dominate %s (%.1f%%)",
				results["sweep3d"].ideal, other, results[other].ideal)
		}
	}
	for _, big := range []string{"alya", "specfem"} {
		for _, small := range []string{"cg", "pop"} {
			if results[big].ideal <= results[small].ideal {
				t.Errorf("%s (%.1f%%) should beat %s (%.1f%%)",
					big, results[big].ideal, small, results[small].ideal)
			}
		}
	}
	if results["bt"].ideal < 15 || results["bt"].ideal > 60 {
		t.Errorf("bt ideal gain = %+.1f%%, want in the paper's ballpark (15-60%%)", results["bt"].ideal)
	}

	// Finding 3: every app needs at least an order of magnitude less
	// bandwidth with overlap to match the original at the high reference.
	ref := 32 * units.GBPerSec
	for _, name := range paperAppsOf(s) {
		st, err := s.Study(name)
		if err != nil {
			t.Fatal(err)
		}
		iso, ok, err := IsoBandwidth(st, s.Machine, ref, bothLinear, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("finding 3: %s cannot match the reference with overlap", name)
			continue
		}
		if reduction := float64(ref) / float64(iso); reduction < 10 {
			t.Errorf("finding 3: %s bandwidth reduction only %.1fx, want >= 10x", name, reduction)
		}
	}
}

// TestPrepostHelpsUnderRendezvous verifies the extension mechanism: with a
// rendezvous-everything protocol, preposting the partial receives starts
// transfers earlier and must not lose to the plain transformation. The
// wavefront app is used because its dependency DAG cannot deadlock under
// blocking rendezvous sends (ring-topology codes like specfem legitimately
// do — the replayer reports that as a deadlock, as Dimemas would).
func TestPrepostHelpsUnderRendezvous(t *testing.T) {
	st := traceStudy(t, "sweep3d", apps.Config{Ranks: 4, Size: 512, Iterations: 1}, 8)
	m := NewSuite().Machine.WithBandwidth(128 * units.MBPerSec)
	m.EagerThreshold = 0 // rendezvous for every chunk
	plain, err := speedup(st, m, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := speedup(st, m, overlap.Options{
		Mechanisms: overlap.BothMechanisms | overlap.PrepostRecv, Pattern: overlap.PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	if pre+1e-9 < plain {
		t.Errorf("prepost (%.3f) must not lose to plain (%.3f) under rendezvous", pre, plain)
	}
}
