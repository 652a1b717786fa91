package campaign

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
	"overlapsim/internal/units"
)

// testSweep is a real (tiny) sweep: 6 points of pingpong across chunk
// granularities and two bandwidths.
func testSweep() (sweep.Grid, machine.Config, int, int) {
	g := sweep.Grid{
		Apps:       []string{"pingpong"},
		Chunks:     []int{2, 4, 8},
		Bandwidths: []units.Bandwidth{1e9, 2e9},
	}
	return g, machine.Default(), 64, 1
}

func testRunner(base machine.Config) *sweep.Runner {
	r := sweep.NewRunner(base)
	r.Size = 64
	r.Iters = 1
	r.Engine = sweep.Engine{Workers: 2}
	return r
}

// TestWorkerEndToEnd runs a whole campaign through the HTTP protocol —
// coordinator behind httptest, two Worker loops over Client — and checks
// the assembled results against the same grid run unsharded on one
// runner: identical values, every chunk exactly once.
func TestWorkerEndToEnd(t *testing.T) {
	g, base, size, iters := testSweep()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	sig := sweep.Signature(g, base, size, iters)
	total := g.Size()

	cfg := Config{
		Signature:   sig,
		Total:       total,
		ChunkPoints: 2,
		LeaseTTL:    5 * time.Second,
		Dir:         t.TempDir(),
		Logf:        t.Logf,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(c, nil).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", i)
			w := &Worker{
				Board: &Client{
					Base:   ts.URL,
					Worker: id,
					Retry:  serve.Retry{Attempts: 3, Wait: 10 * time.Millisecond},
				},
				ID:        id,
				Runner:    testRunner(base),
				Grid:      g,
				Signature: sig,
				Total:     total,
				NumChunks: numChunks(total, cfg.ChunkPoints),
				Logf:      t.Logf,
			}
			if err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", id, err)
			}
		}(i)
	}
	wg.Wait()

	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done after workers exited")
	}
	got, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want, err := testRunner(base).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("campaign results differ from the unsharded run")
	}
	ct := c.Counters()
	if ct.Done != numChunks(total, cfg.ChunkPoints) || ct.Quarantined != 0 {
		t.Fatalf("counters %+v", ct)
	}
	if ct.Work.Traces == 0 && ct.Work.TraceCacheHits == 0 {
		t.Fatalf("no work folded into campaign counters: %+v", ct.Work)
	}
}

// TestWorkerChaosDropRecovers: a worker that drops every first attempt
// (runs the chunk, never reports) still converges — the coordinator
// expires the leases and the retries complete the campaign.
func TestWorkerChaosDropRecovers(t *testing.T) {
	g, base, size, iters := testSweep()
	sig := sweep.Signature(g, base, size, iters)
	total := g.Size()

	cfg := Config{
		Signature:   sig,
		Total:       total,
		ChunkPoints: 3,
		// Tight timing so the dropped leases lapse quickly in real time.
		LeaseTTL:    100 * time.Millisecond,
		Backoff:     Backoff{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond, Seed: 3},
		MaxAttempts: 10,
		Dir:         t.TempDir(),
		Logf:        t.Logf,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{
		Board:     &LocalBoard{C: c, Worker: "chaotic"},
		ID:        "chaotic",
		Runner:    testRunner(base),
		Grid:      g,
		Signature: sig,
		Total:     total,
		NumChunks: numChunks(total, cfg.ChunkPoints),
		// Rate 1 + drop: every attempt draws an injection, so every chunk's
		// first lease is dropped and only a later lease reports it.
		Chaos: Chaos{Rate: 1, Seed: 5, Mode: ChaosDrop},
		Logf:  t.Logf,
	}
	// Rate 1 means retries drop too, so a clean worker finishes the
	// campaign, as in the CI chaos job. They run one after the other: run
	// together, either can win every retry race, and the chaotic one could
	// drop a chunk into quarantine. The chaotic worker first takes and
	// drops every chunk once.
	clean := &Worker{
		Board:     &LocalBoard{C: c, Worker: "clean"},
		ID:        "clean",
		Runner:    testRunner(base),
		Grid:      g,
		Signature: sig,
		Total:     total,
		NumChunks: numChunks(total, cfg.ChunkPoints),
		Logf:      t.Logf,
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	for deadline := time.Now().Add(10 * time.Second); c.Counters().Leases < w.NumChunks; {
		if time.Now().After(deadline) {
			t.Fatalf("chaotic worker took %d leases, want %d", c.Counters().Leases, w.NumChunks)
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("chaotic worker: err = %v, want context.Canceled", err)
	}
	if err := clean.Run(context.Background()); err != nil {
		t.Fatalf("worker clean: %v", err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assemble(); err != nil {
		t.Fatal(err)
	}
	if ct := c.Counters(); ct.Expired == 0 {
		t.Fatalf("chaos drop produced no lease expiries: %+v", ct)
	}
}

// completeHook is a Board that calls before ahead of every Complete.
type completeHook struct {
	Board
	before func()
}

func (b *completeHook) Complete(ctx context.Context, chunk int, work sweep.Counters, envelope []byte) error {
	b.before()
	return b.Board.Complete(ctx, chunk, work, envelope)
}

// TestWorkerRetainsVariantsAcrossLeases: a worker keeps the variants its
// leases build for as long as it runs, so a later lease that replays the
// same variant finds the one an earlier lease transformed. The grid's two
// leases (one per bandwidth) replay the same three variants.
func TestWorkerRetainsVariantsAcrossLeases(t *testing.T) {
	g, base, size, iters := testSweep()
	sig := sweep.Signature(g, base, size, iters)
	total := g.Size()
	c, err := New(Config{Signature: sig, Total: total, ChunkPoints: 3, LeaseTTL: 5 * time.Second, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner(base)
	p := g.Expand()[0]
	var seen []*trace.Set
	variant := func() {
		w, err := r.Workload(p.App, apps.Config{Size: size, Iterations: iters}, p.Chunks)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := w.Study.Variant(p.Options())
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, ts)
	}
	w := &Worker{
		Board:     &completeHook{Board: &LocalBoard{C: c, Worker: "w"}, before: variant},
		ID:        "w",
		Runner:    r,
		Grid:      g,
		Signature: sig,
		Total:     total,
		NumChunks: numChunks(total, 3),
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("%d completions, want 2", len(seen))
	}
	if seen[0] != seen[1] {
		t.Error("the second lease transformed the first point's variant again")
	}
}

// TestChaosDeterminism: the injection schedule is a pure function of
// (seed, chunk, attempt), and each mode injects only its own action.
func TestChaosDeterminism(t *testing.T) {
	a := Chaos{Rate: 0.5, Seed: 9, Mode: ChaosCrash}
	for chunk := 0; chunk < 10; chunk++ {
		for attempt := 1; attempt <= 4; attempt++ {
			if a.Action(chunk, attempt) != a.Action(chunk, attempt) {
				t.Fatal("chaos draw is not deterministic")
			}
		}
	}
	hits := 0
	for chunk := 0; chunk < 200; chunk++ {
		switch a.Action(chunk, 1) {
		case ActCrash:
			hits++
		case ActNone:
		default:
			t.Fatal("crash mode injected a non-crash action")
		}
	}
	if hits < 60 || hits > 140 {
		t.Fatalf("rate 0.5 injected %d/200 times", hits)
	}
	if (Chaos{}).Action(1, 1) != ActNone {
		t.Fatal("zero-value chaos injected")
	}
	if (Chaos{Rate: 1, Mode: ChaosOff}).Action(1, 1) != ActNone {
		t.Fatal("off-mode chaos injected")
	}
	mix := Chaos{Rate: 1, Seed: 2, Mode: ChaosMix}
	got := []ChaosAction{mix.Action(0, 1), mix.Action(0, 2), mix.Action(0, 3)}
	want := []ChaosAction{ActCrash, ActStall, ActDrop}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mix rotation %v, want %v", got, want)
	}
}

// TestParseChaosMode pins the flag syntax.
func TestParseChaosMode(t *testing.T) {
	for s, want := range map[string]ChaosMode{
		"off": ChaosOff, "": ChaosOff, "crash": ChaosCrash,
		"stall": ChaosStall, "drop": ChaosDrop, "mix": ChaosMix,
	} {
		got, err := ParseChaosMode(s)
		if err != nil || got != want {
			t.Errorf("ParseChaosMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseChaosMode("entropy"); err == nil {
		t.Error("unknown mode accepted")
	}
}
