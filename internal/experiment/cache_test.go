package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"overlapsim/internal/sweep"
	"overlapsim/internal/trace"
)

// TestSuiteTraceCache checks the harness-side cache wiring: a second suite
// sharing the cache directory reconstructs the same study from disk and
// produces identical simulation results.
func TestSuiteTraceCache(t *testing.T) {
	dir := t.TempDir()

	cold := NewSuite()
	cold.Quick = true
	cold.Cache = &sweep.TraceCache{Dir: dir}
	st1, err := cold.Study("pingpong")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache dir after cold run: %v (%d entries, want trace+profile)", err, len(entries))
	}

	warm := NewSuite()
	warm.Quick = true
	warm.Cache = &sweep.TraceCache{Dir: dir}
	st2, err := warm.Study("pingpong")
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := trace.Write(&a, st1.Original()); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&b, st2.Original()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cached study's original trace differs from the traced one")
	}

	s1, err := speedup(st1, cold.Machine, bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := speedup(st2, warm.Machine, bothLinear)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("speedup from cached study %v != traced %v", s2, s1)
	}
}

// TestSuiteCacheStoreFailure: a cache directory that cannot be created
// (its parent is a regular file) must not fail the experiment — the trace
// just succeeded — but the failed write must surface through
// CacheStoreErr instead of being dropped.
func TestSuiteCacheStoreFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSuite()
	s.Quick = true
	s.Cache = &sweep.TraceCache{Dir: filepath.Join(file, "cache")}
	if s.CacheStoreErr() != nil {
		t.Fatal("store error before any run")
	}
	var buf bytes.Buffer
	if err := RunF1(s, &buf); err != nil {
		t.Fatalf("an unwritable cache failed the experiment: %v", err)
	}
	if s.CacheStoreErr() == nil {
		t.Error("failed cache write was silently discarded")
	}
}
