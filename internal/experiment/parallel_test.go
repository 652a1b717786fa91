package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"overlapsim/internal/sweep"
	"overlapsim/internal/sweep/replaystore"
)

// TestExperimentsWorkerCountInvariant is the determinism contract of the
// suite's fan-out: every experiment renders byte-identical output no
// matter how many workers compute its rows.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	for _, d := range All {
		t.Run(d.ID, func(t *testing.T) {
			t.Parallel()
			outputs := make([]bytes.Buffer, 3)
			for i, workers := range []int{1, 2, 8} {
				s := NewSuite()
				s.Quick = true
				s.Workers = workers
				if err := d.Run(s, &outputs[i]); err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
			}
			for i := 1; i < len(outputs); i++ {
				if !bytes.Equal(outputs[0].Bytes(), outputs[i].Bytes()) {
					t.Fatalf("output differs between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
						outputs[0].String(), outputs[i].String())
				}
			}
		})
	}
}

// TestSuiteStudyConcurrent hammers the Runner's workload memo through the
// suite: every goroutine must get the same traced workload, with the
// trace run once.
func TestSuiteStudyConcurrent(t *testing.T) {
	s := NewSuite()
	s.Quick = true
	const goroutines = 16
	sts := make([]*sweep.Workload, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			st, err := s.Study("pingpong")
			if err != nil {
				panic(fmt.Sprintf("Study: %v", err))
			}
			sts[i] = st
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if sts[i] != sts[0] {
			t.Fatal("concurrent Study calls returned distinct studies")
		}
	}
	if n := s.Runner().Stats().Traces; n != 1 {
		t.Errorf("%d instrumented runs, want 1", n)
	}
}

// TestSuitePanickedFillStaysFailed: a workload trace or a replay that
// panics leaves its Runner memo entry holding the panic as an error. A
// reused Suite reports it, instead of a nil workload or an intermediate
// bandwidth of 0 (infinitely fast) passed off as a result. The panics are
// injected through the persistent caches' Warn hooks, which the trace and
// replay fills call when they meet a corrupt entry; each hook panics once,
// so a fill that ran again would succeed and fail the test.
func TestSuitePanickedFillStaysFailed(t *testing.T) {
	armed := true
	panicOnce := func(string) {
		if armed {
			armed = false
			panic("cache hook broken")
		}
	}
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("first %s did not panic", what)
			}
		}()
		f()
	}
	corrupt := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	s := quickSuite()
	s.Cache = &sweep.TraceCache{Dir: dir, Warn: panicOnce}
	pp := s.AppConfig("pingpong")
	corrupt(filepath.Join(dir, s.Cache.Key("pingpong", pp.Ranks, s.Chunks, pp.Size, pp.Iterations)+".trace"))
	mustPanic("Study", func() { s.Study("pingpong") })
	if st, err := s.Study("pingpong"); err == nil || !strings.Contains(err.Error(), "panicked: cache hook broken") {
		t.Errorf("Study after a panicked trace = %v, %v; want the recorded panic", st, err)
	}

	// The intermediate-bandwidth search's first probe replays bt's
	// original trace at the bottom of the bandwidth grid.
	st, err := s.Study("bt")
	if err != nil {
		t.Fatal(err)
	}
	store := &replaystore.Store{Dir: dir, Warn: panicOnce}
	s.Runner().Store = store
	bt := s.AppConfig("bt")
	first := s.Machine.WithBandwidth(bandwidthGrid()[0])
	corrupt(filepath.Join(dir, store.Key("bt", bt.Ranks, bt.Size, bt.Iterations, "original", first)+replaystore.Ext))
	armed = true
	mustPanic("intermediate", func() { IntermediateBandwidth(st, s.Machine) })
	if bw, err := IntermediateBandwidth(st, s.Machine); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("intermediate after a panicked search = %v, %v; want the recorded panic", bw, err)
	}
}

// TestRowPanicFailsExperiment: E1, B1 and S1 compute their rows on the
// suite's engine like E2 does, so a row whose workload trace panics fails
// the experiment as that row's job error instead of crashing the process.
// The panic is injected through the trace cache's Warn hook, which the
// trace fill calls when it meets sweep3d's corrupt entry: row 2 of E1 and
// B1 (bt, cg, sweep3d), and row 0 of S1 (its 4-rank grid is the suite's
// own sweep3d workload).
func TestRowPanicFailsExperiment(t *testing.T) {
	for _, tc := range []struct{ id, want string }{
		{"e1", "sweep: job 2: panic: cache hook broken"},
		{"b1", "sweep: job 2: panic: cache hook broken"},
		{"s1", "sweep: job 0: panic: cache hook broken"},
	} {
		t.Run(tc.id, func(t *testing.T) {
			dir := t.TempDir()
			s := quickSuite()
			s.Cache = &sweep.TraceCache{Dir: dir, Warn: func(string) { panic("cache hook broken") }}
			cfg := s.AppConfig("sweep3d")
			key := s.Cache.Key("sweep3d", cfg.Ranks, s.Chunks, cfg.Size, cfg.Iterations)
			if err := os.WriteFile(filepath.Join(dir, key+".trace"), []byte("corrupt"), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := Find(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Run(s, io.Discard); err == nil || err.Error() != tc.want {
				t.Errorf("%s = %v; want %q", tc.id, err, tc.want)
			}
		})
	}
}
