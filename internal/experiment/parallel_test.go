package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"overlapsim/internal/core"
	"overlapsim/internal/overlap"
	"overlapsim/internal/tracer"
)

// TestExperimentsWorkerCountInvariant is the determinism contract of the
// sweep rewiring: every grid-based experiment renders byte-identical tables
// no matter how many workers replay its points.
func TestExperimentsWorkerCountInvariant(t *testing.T) {
	for _, id := range []string{"e2", "e2f", "e3", "a1", "a2", "a3"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			d, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
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

// TestSuiteStudyConcurrent hammers the suite's study cache: every
// goroutine must get the same traced study, with the trace run once.
func TestSuiteStudyConcurrent(t *testing.T) {
	s := NewSuite()
	s.Quick = true
	const goroutines = 16
	sts := make([]*core.Study, goroutines)
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
}

// TestSuitePanickedFillStaysFailed: a study trace or an intermediate-
// bandwidth search that panics leaves its memo entry holding the panic as
// an error. A reused Suite reports it, instead of a nil study or a
// bandwidth of 0 (infinitely fast) passed off as a result.
func TestSuitePanickedFillStaysFailed(t *testing.T) {
	orig := traceApp
	t.Cleanup(func() { traceApp = orig })
	traceApp = func(tracer.App, tracer.Options) (*overlap.ProfiledSet, error) {
		panic("tracer invariant broken")
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
	s := quickSuite()
	mustPanic("Study", func() { s.Study("pingpong") })
	traceApp = orig
	if st, err := s.Study("pingpong"); err == nil || !strings.Contains(err.Error(), "panicked: tracer invariant broken") {
		t.Errorf("Study after a panicked trace = %v, %v; want the recorded panic", st, err)
	}

	broken := &core.Study{} // no profiled set: its first replay panics
	mustPanic("intermediate", func() { s.intermediate(broken) })
	if bw, err := s.intermediate(broken); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("intermediate after a panicked search = %v, %v; want the recorded panic", bw, err)
	}
}
