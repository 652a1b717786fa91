package experiment

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"overlapsim/internal/core"
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
