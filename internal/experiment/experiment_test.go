package experiment

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

func quickSuite() *Suite {
	s := NewSuite()
	s.Quick = true
	return s
}

// traceStudy traces one workload on a Runner of its own, outside any
// suite.
func traceStudy(t *testing.T, name string, cfg apps.Config, chunks int) *sweep.Workload {
	t.Helper()
	w, err := sweep.NewRunner(machine.Default()).Workload(name, cfg, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// speedup is T_original / T_overlapped of the workload on m, through the
// Runner's replay memo.
func speedup(w *sweep.Workload, m machine.Config, opts overlap.Options) (float64, error) {
	res, err := w.ReplayPair(opts, m)
	return res.Speedup, err
}

// TestNewPipelineAndCaching traces a workload the way the experiments do
// and checks its study caches overlapped variants per options.
func TestNewPipelineAndCaching(t *testing.T) {
	st := traceStudy(t, "pingpong", apps.Config{Ranks: 2, Size: 256, Iterations: 2}, 4)
	if st.Study.Original().Name != "pingpong" {
		t.Errorf("set name = %q", st.Study.Original().Name)
	}
	a, err := st.Study.Variant(bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Study.Variant(bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("variant sets should be cached")
	}
	c, err := st.Study.Variant(bothReal)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different options must give different variants")
	}
}

func TestSuiteStudyUnknownApp(t *testing.T) {
	if _, err := NewSuite().Study("nope"); err == nil {
		t.Error("unknown app: expected error")
	}
}

func TestSpeedupSanity(t *testing.T) {
	st := traceStudy(t, "ring", apps.Config{Ranks: 4, Size: 512, Iterations: 2}, 8)
	bw, err := IntermediateBandwidth(st, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := speedup(st, machine.Default().WithBandwidth(bw), bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	if sp < 1.0 {
		t.Errorf("linear-pattern overlap slower than original at intermediate bandwidth: %v", sp)
	}
}

func TestIntermediateBandwidthInGrid(t *testing.T) {
	st := traceStudy(t, "halo2d", apps.Config{Ranks: 4, Size: 64, Iterations: 2}, 4)
	bw, err := IntermediateBandwidth(st, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	grid := bandwidthGrid()
	found := false
	for _, g := range grid {
		if g == bw {
			found = true
		}
	}
	if !found {
		t.Errorf("intermediate bandwidth %v not on the search grid", bw)
	}
}

func TestIsoBandwidthMeetsTarget(t *testing.T) {
	st := traceStudy(t, "specfem", apps.Config{Ranks: 4, Size: 1024, Iterations: 2}, 8)
	base := machine.Default()
	ref := 32 * units.GBPerSec
	iso, ok, err := IsoBandwidth(st, base, ref, bothLinear, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("iso bandwidth unreachable")
	}
	if iso >= ref {
		t.Errorf("iso bandwidth %v not below reference %v", iso, ref)
	}
	// Verify the claim: the overlapped run at iso bandwidth meets the
	// original's runtime at the reference bandwidth (within tolerance).
	origRef, err := st.Study.SimulateOriginal(base.WithBandwidth(ref))
	if err != nil {
		t.Fatal(err)
	}
	overIso, err := st.Study.SimulateVariant(base.WithBandwidth(iso), bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	if float64(overIso.Total) > 1.03*float64(origRef.Total) {
		t.Errorf("overlapped at iso %v = %v, target %v", iso, overIso.Total, origRef.Total)
	}
}

func TestFindRegistry(t *testing.T) {
	for _, d := range All {
		got, err := Find(d.ID)
		if err != nil {
			t.Errorf("Find(%q): %v", d.ID, err)
			continue
		}
		if got.Title != d.Title {
			t.Errorf("Find(%q) returned wrong def", d.ID)
		}
	}
	if _, err := Find("zz"); err == nil {
		t.Error("unknown id: expected error")
	}
}

func TestRunAllExperimentsQuick(t *testing.T) {
	// Every registered experiment must run to completion in quick mode and
	// produce non-trivial output.
	s := quickSuite()
	for _, d := range All {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := d.Run(s, &buf); err != nil {
				t.Fatalf("%s: %v", d.ID, err)
			}
			if buf.Len() < 40 {
				t.Errorf("%s: suspiciously short output: %q", d.ID, buf.String())
			}
		})
	}
}

// TestRunAllTracesEachWorkloadOnce: the experiments share one Runner, so a
// quick `run all` traces each distinct workload exactly once — bt, cg,
// sweep3d, pingpong (F1) and S1's 16-rank sweep3d; S1's 4-rank sweep3d is
// the suite's own — and answers repeated (trace, platform) pairs from the
// replay memo.
func TestRunAllTracesEachWorkloadOnce(t *testing.T) {
	s := quickSuite()
	for _, d := range All {
		if err := d.Run(s, io.Discard); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
	}
	st := s.Runner().Stats()
	if st.Traces != 5 || st.TraceCacheHits != 0 {
		t.Errorf("%d instrumented runs, %d trace-cache hits; want 5 and 0", st.Traces, st.TraceCacheHits)
	}
	if lookups := st.Replays + st.ReplayMemoHits; st.Replays == 0 || st.Replays >= lookups {
		t.Errorf("%d replays for %d replay lookups; want fewer replays than lookups", st.Replays, lookups)
	}
}

func TestE1RealNegligibleIdealLarge(t *testing.T) {
	// The quick-mode E1 must reproduce finding 1's shape: every app's
	// real-pattern gain is small, and bt/sweep3d ideal-pattern gains are
	// clearly larger.
	s := quickSuite()
	var buf bytes.Buffer
	if err := RunE1(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "real<<ideal") < 2 {
		t.Errorf("finding 1 not reproduced in quick mode:\n%s", out)
	}
}

func TestE2TableMentionsPaperValues(t *testing.T) {
	s := quickSuite()
	var buf bytes.Buffer
	if err := RunE2(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range paperAppsOf(s) {
		if !strings.Contains(out, app) {
			t.Errorf("E2 output missing app %q:\n%s", app, out)
		}
	}
	if !strings.Contains(out, "+160.0%") { // sweep3d's paper column
		t.Errorf("E2 output missing paper reference values:\n%s", out)
	}
}

func TestPaperE2CoversAllApps(t *testing.T) {
	for _, app := range apps.PaperApps() {
		if _, ok := PaperE2[app]; !ok {
			t.Errorf("PaperE2 missing %q", app)
		}
	}
}

func TestSuiteAppConfigQuickShrinks(t *testing.T) {
	s := quickSuite()
	full := NewSuite()
	for _, app := range []string{"bt", "sweep3d", "alya"} {
		q, f := s.AppConfig(app), full.AppConfig(app)
		if q.Ranks >= f.Ranks && q.Size >= f.Size {
			t.Errorf("%s: quick config %+v not smaller than %+v", app, q, f)
		}
	}
}

func TestSuiteStudyCaching(t *testing.T) {
	s := quickSuite()
	a, err := s.Study("bt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Study("bt")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("suite should cache studies")
	}
}

func TestMechanismSubsetsOrdering(t *testing.T) {
	// Both mechanisms together must be at least as good as either alone
	// (on a contention-free platform with linear patterns).
	st := traceStudy(t, "specfem", apps.Config{Ranks: 4, Size: 1024, Iterations: 2}, 8)
	m := machine.Default().WithBandwidth(128 * units.MBPerSec)
	get := func(mech overlap.Mechanism) float64 {
		sp, err := speedup(st, m, overlap.Options{Mechanisms: mech, Pattern: overlap.PatternLinear})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	both := get(overlap.BothMechanisms)
	early := get(overlap.EarlySend)
	late := get(overlap.LateRecv)
	if both+1e-9 < early || both+1e-9 < late {
		t.Errorf("both=%v should dominate early=%v and late=%v", both, early, late)
	}
}
