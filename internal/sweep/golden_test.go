package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/units"
)

// goldenSet is one hand-built result set the encoder goldens cover. The
// results carry no replay, so a model change cannot move their bytes.
type goldenSet struct {
	name    string
	approx  bool // the run mode: -approx on or off
	results []Result
}

// goldenResult builds a result whose times and counters derive from seed,
// so every row of a set renders differently.
func goldenResult(p Point, bw units.Bandwidth, seed int) Result {
	orig := units.Time(1_000_000 + 7919*seed)
	over := units.Time(600_000 + 104_729*seed)
	return Result{
		Point:     p,
		Bandwidth: bw,
		TOriginal: orig,
		TOverlap:  over,
		Speedup:   float64(orig) / float64(over),
		Blocked:   float64(seed%7) / 9,
		Steps:     int64(100 + 37*seed),
	}
}

func goldenSets() []goldenSet {
	var plain []Result
	for _, app := range []string{"cg", "mg"} {
		for _, ranks := range []int{0, 4} {
			for _, bw := range []units.Bandwidth{250 * units.MBPerSec, units.GBPerSec} {
				for _, chunks := range []int{4, 8} {
					p := Point{App: app, Ranks: ranks, Bandwidth: bw, Chunks: chunks,
						Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
					if chunks == 8 {
						p.Mechanisms, p.Pattern = overlap.EarlySend|overlap.PrepostRecv, overlap.PatternLinear
					}
					plain = append(plain, goldenResult(p, bw, len(plain)))
				}
			}
		}
	}

	// Every overlay column on every row, eager at both sentinels.
	var overlayAll []Result
	for _, eager := range []units.Bytes{-1, 0} {
		for i, lat := range []units.Duration{5 * units.Microsecond, 50 * units.Microsecond} {
			p := Point{App: "pingpong", Bandwidth: units.GBPerSec, Chunks: 8,
				Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear,
				Platform: PlatformOverlay{
					Latency: lat, LatencySet: true,
					Buses: 4 * i, BusesSet: true,
					RanksPerNode: 1 + i, RanksPerNodeSet: true,
					EagerThreshold: eager, EagerSet: true,
					Collective: machine.CollectiveModel(i), CollectiveSet: true,
				}}
			overlayAll = append(overlayAll, goldenResult(p, units.GBPerSec, len(overlayAll)))
		}
	}
	// One overlay column per row: every other column reads "base".
	var overlayEach []Result
	for i, ov := range []PlatformOverlay{
		{Latency: 2 * units.Millisecond, LatencySet: true},
		{Buses: 2, BusesSet: true},
		{RanksPerNode: 8, RanksPerNodeSet: true},
		{EagerThreshold: 64 * units.KB, EagerSet: true},
		{Collective: machine.CollLinear, CollectiveSet: true},
		{},
	} {
		p := Point{App: "ring", Ranks: 8, Bandwidth: BaseBandwidth, Chunks: 16,
			Mechanisms: overlap.LateRecv, Pattern: overlap.PatternReal, Platform: ov}
		overlayEach = append(overlayEach, goldenResult(p, 100*units.MBPerSec, i))
	}

	// Infinite (0) and base (resolved) bandwidths.
	var bandwidths []Result
	for i, bw := range []units.Bandwidth{0, BaseBandwidth, 0, BaseBandwidth} {
		eff := bw
		if bw == BaseBandwidth {
			eff = 500 * units.MBPerSec
		}
		p := Point{App: "sweep3d", Bandwidth: bw, Chunks: 4 << i,
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal}
		bandwidths = append(bandwidths, goldenResult(p, eff, i))
	}

	var mixed, demoted []Result
	for i, r := range plain[:6] {
		demoted = append(demoted, r)
		r.Approx = i%2 == 1
		mixed = append(mixed, r)
	}

	return []goldenSet{
		{name: "plain", results: plain},
		{name: "overlay-all", results: overlayAll},
		{name: "overlay-each", results: overlayEach},
		{name: "bandwidths", results: bandwidths},
		{name: "approx-mixed", approx: true, results: mixed},
		{name: "approx-demoted", approx: true, results: demoted},
		{name: "empty"},
		{name: "empty-approx", approx: true},
	}
}

// goldenPath names a set's golden file for one format.
func goldenPath(set string, f Format) string {
	return filepath.Join("testdata", "encode-"+set+"."+string(f))
}

func readGolden(t *testing.T, set string, f Format) []byte {
	t.Helper()
	want, err := os.ReadFile(goldenPath(set, f))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestWriteMatchesGoldens pins the batch encoding byte for byte against
// files recorded from an earlier encoder implementation.
func TestWriteMatchesGoldens(t *testing.T) {
	for _, set := range goldenSets() {
		for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
			var got bytes.Buffer
			if err := Write(&got, f, set.results, set.approx); err != nil {
				t.Fatal(err)
			}
			if want := readGolden(t, set.name, f); !bytes.Equal(want, got.Bytes()) {
				t.Errorf("%s %s: Write output differs from the golden:\n%s\n---\n%s", set.name, f, want, got.Bytes())
			}
		}
	}
}

// TestSinksMatchGoldens: the batch and ordered sinks, fed in shuffled
// completion order, reproduce the goldens too.
func TestSinksMatchGoldens(t *testing.T) {
	for _, set := range goldenSets() {
		pts := make([]Point, len(set.results))
		for i, r := range set.results {
			pts[i] = r.Point
		}
		for _, f := range []Format{FormatTable, FormatCSV, FormatJSON} {
			want := readGolden(t, set.name, f)
			for name, newSink := range map[string]func(*bytes.Buffer) Sink{
				"batch": func(b *bytes.Buffer) Sink {
					s := NewBatchSink(b, f)
					s.SetApprox(set.approx)
					return s
				},
				"ordered": func(b *bytes.Buffer) Sink {
					s := NewOrderedSink(b, f, pts, nil)
					s.SetApprox(set.approx)
					return s
				},
			} {
				var got bytes.Buffer
				s := newSink(&got)
				for _, i := range shuffledOrder(len(set.results), 3) {
					if err := s.Accept(i, set.results[i]); err != nil {
						t.Fatalf("%s %s %s: Accept(%d): %v", set.name, name, f, i, err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatalf("%s %s %s: Close: %v", set.name, name, f, err)
				}
				if !bytes.Equal(want, got.Bytes()) {
					t.Errorf("%s: %s sink %s output differs from the golden:\n%s\n---\n%s", set.name, name, f, want, got.Bytes())
				}
			}
		}
	}
}
