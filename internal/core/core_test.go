package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"overlapsim/internal/machine"
	"overlapsim/internal/memory"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// chainApp is a 2-rank producer/consumer used across the core tests.
type chainApp struct{}

func (chainApp) Name() string { return "chain" }
func (chainApp) Ranks() int   { return 2 }
func (chainApp) Run(p *tracer.Proc) error {
	const n = 256
	buf := p.NewBuffer("data", n)
	for iter := 0; iter < 2; iter++ {
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.Compute(20)
				buf.Store(i, float64(i+iter))
			}
			if err := p.Send(buf, 0, n, 1, iter); err != nil {
				return err
			}
		} else {
			if err := p.Recv(buf, 0, n, 0, iter); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				p.Compute(20)
				_ = buf.Load(i)
			}
		}
	}
	return nil
}

func balancedMachine() machine.Config {
	// 256 elems * 8B = 2KB per message; bursts of 5120 instr = 5.12us.
	// 2KB / 5.12us ~ 400MB/s keeps comm comparable to compute.
	c := machine.Default()
	c.Bandwidth = 400 * units.MBPerSec
	c.Latency = units.Microsecond
	return c
}

func TestEnvironmentTraceAndCompare(t *testing.T) {
	env := NewEnvironment()
	env.Machine = balancedMachine()
	study, err := env.Trace(chainApp{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Original().Name != "chain" {
		t.Errorf("study name = %q", study.Original().Name)
	}
	cmp, err := study.Compare(env.Machine, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() <= 1.0 {
		t.Errorf("linear overlap should win on the balanced machine, speedup = %v", cmp.Speedup())
	}
	// The measured pattern here *is* linear, so real should also win.
	cmpReal, err := study.Compare(env.Machine, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if cmpReal.Speedup() <= 1.0 {
		t.Errorf("sequential producer/consumer should profit from real-pattern overlap too, got %v", cmpReal.Speedup())
	}
}

func TestStudyVariantCaching(t *testing.T) {
	env := NewEnvironment()
	study, err := env.Trace(chainApp{})
	if err != nil {
		t.Fatal(err)
	}
	opts := overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear}
	a, err := study.Variant(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := study.Variant(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("variants should be cached")
	}
	c, err := study.Variant(overlap.Options{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different options must give different variants")
	}
}

// TestStudyConcurrentUse shares one study between goroutines that build,
// replay and compare variants at once, the way sweep workers use it.
// Under -race it checks the variant cache is synchronised; every caller
// must also get the single cached variant for its options.
func TestStudyConcurrentUse(t *testing.T) {
	env := NewEnvironment()
	env.Machine = balancedMachine()
	study, err := env.Trace(chainApp{})
	if err != nil {
		t.Fatal(err)
	}
	opts := []overlap.Options{
		{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear},
		{Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal},
		{Mechanisms: overlap.EarlySend, Pattern: overlap.PatternLinear},
	}
	const goroutines = 12
	got := make([]*trace.Set, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts[g%len(opts)]
			if got[g], errs[g] = study.Variant(o); errs[g] != nil {
				return
			}
			if _, errs[g] = study.SimulateVariant(env.Machine, o); errs[g] != nil {
				return
			}
			_, errs[g] = study.Compare(env.Machine, o)
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if got[g] != got[g%len(opts)] {
			t.Errorf("goroutine %d got a second copy of variant %s", g, got[g].Variant)
		}
	}
}

func TestFromTraceConservative(t *testing.T) {
	env := NewEnvironment()
	ts := trace.NewSet("bare", "original", 2, 1000)
	ts.Traces[0].Append(trace.Burst(10000), trace.Send(1, 0, 4096))
	ts.Traces[1].Append(trace.Recv(0, 0, 4096), trace.Burst(10000))
	study, err := env.FromTrace(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Real pattern without annotations degrades to the conservative
	// no-benefit placement but must still simulate correctly.
	cmp, err := study.Compare(env.Machine, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternReal})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() < 0.8 || cmp.Speedup() > 1.2 {
		t.Errorf("conservative fallback speedup = %v, want ~1", cmp.Speedup())
	}
}

func TestFromProfiledValidates(t *testing.T) {
	env := NewEnvironment()
	if _, err := env.FromProfiled(nil); err == nil {
		t.Error("nil profiled set: expected error")
	}
	bad := trace.NewSet("bad", "original", 2, 1000)
	bad.Traces[0].Append(trace.Send(1, 0, 64)) // unmatched
	ann := []map[int]overlap.Annotation{{}, {}}
	if _, err := env.FromProfiled(&overlap.ProfiledSet{Original: bad, Annotations: ann, Chunks: 4}); err == nil {
		t.Error("invalid trace: expected error")
	}
}

func TestComparisonRendering(t *testing.T) {
	env := NewEnvironment()
	env.Machine = balancedMachine()
	study, err := env.Trace(chainApp{})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := study.Compare(env.Machine, overlap.Options{
		Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
	if err != nil {
		t.Fatal(err)
	}
	var gantt, sums, prvA, prvB bytes.Buffer
	if err := cmp.RenderGantt(&gantt, 48); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gantt.String(), "original") || !strings.Contains(gantt.String(), "overlap-linear") {
		t.Errorf("gantt missing variants:\n%s", gantt.String())
	}
	if err := cmp.WriteSummaries(&sums); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sums.String(), "rank") < 2 {
		t.Errorf("summaries incomplete:\n%s", sums.String())
	}
	if err := cmp.WritePRV(&prvA, &prvB); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(prvA.String(), "#Paraver") || !strings.HasPrefix(prvB.String(), "#Paraver") {
		t.Error("prv outputs malformed")
	}
}

// memory hook keeps the import used and checks buffers surface via Proc.
func TestProcBufferAccess(t *testing.T) {
	env := NewEnvironment()
	probe := probeApp{t: t}
	if _, err := env.Trace(probe); err != nil {
		t.Fatal(err)
	}
}

type probeApp struct{ t *testing.T }

func (probeApp) Name() string { return "probe" }
func (probeApp) Ranks() int   { return 1 }
func (a probeApp) Run(p *tracer.Proc) error {
	buf := p.NewBuffer("x", 4)
	buf.Store(0, 42)
	p.Compute(10)
	if buf.Load(0) != 42 {
		a.t.Error("tracked buffer lost data")
	}
	if buf.FirstRead(0) == memory.Unread {
		a.t.Error("load not tracked")
	}
	return nil
}
