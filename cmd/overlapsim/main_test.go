package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlapsim/internal/cliflag"
	"overlapsim/internal/overlap"
)

func TestRunList(t *testing.T) {
	if err := runList(); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentQuick(t *testing.T) {
	if err := runExperiments([]string{"-quick", "e2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperimentErrors(t *testing.T) {
	if err := runExperiments([]string{}); err == nil {
		t.Error("no id: expected error")
	}
	if err := runExperiments([]string{"zz"}); err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Errorf("unknown id: got %v", err)
	}
	if err := runExperiments([]string{"-bw", "sideways", "e2"}); err == nil {
		t.Error("bad machine flag: expected error")
	}
}

// TestRunExperimentCacheStoreWarns: with the cache directory under a
// regular file every trace-cache write fails. The run must still succeed,
// and the failure must surface as the same warning `sweep` prints.
func TestRunExperimentCacheStoreWarns(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	stderr := captureStderr(t, func() {
		err = runExperiments([]string{"-quick", "-cache-dir", filepath.Join(file, "cache"), "f1"})
	})
	if err != nil {
		t.Fatalf("an unwritable cache failed the run: %v", err)
	}
	if !strings.Contains(stderr, "run: warning: cache not updated (next run will recompute)") {
		t.Errorf("failed cache write not reported; stderr:\n%s", stderr)
	}
}

func TestRunStudy(t *testing.T) {
	err := runStudy([]string{
		"-app", "pingpong", "-ranks", "2", "-size", "128", "-iters", "1",
		"-pattern", "real", "-width", "40",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyErrors(t *testing.T) {
	if err := runStudy([]string{"-app", "nope"}); err == nil {
		t.Error("unknown app: expected error")
	}
	if err := runStudy([]string{"-app", "pingpong", "-pattern", "diagonal"}); err == nil {
		t.Error("unknown pattern: expected error")
	}
}

func TestRunSweepWorkerCountByteIdentical(t *testing.T) {
	args := []string{
		"-apps", "pingpong", "-bws", "64MB/s,256MB/s,1GB/s", "-chunks", "4,8",
		"-mechs", "earlysend,both", "-size", "512", "-iters", "2",
	}
	for _, format := range []string{"table", "csv", "json"} {
		var serial, parallel bytes.Buffer
		if err := runSweep(append([]string{"-workers", "1", "-format", format}, args...), &serial); err != nil {
			t.Fatal(err)
		}
		if err := runSweep(append([]string{"-workers", "8", "-format", format}, args...), &parallel); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Errorf("%s: -workers=8 output differs from -workers=1:\n%s\n---\n%s",
				format, serial.String(), parallel.String())
		}
		if serial.Len() == 0 {
			t.Errorf("%s: empty output", format)
		}
	}
}

func TestRunSweepOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.csv")
	var stdout bytes.Buffer
	err := runSweep([]string{
		"-apps", "pingpong", "-size", "256", "-iters", "1",
		"-format", "csv", "-o", path,
	}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("results leaked to stdout with -o: %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "app,ranks,bandwidth_bytes_per_sec") {
		t.Errorf("unexpected CSV header: %q", string(data[:min(len(data), 80)]))
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Errorf("want header + one point, got %d lines", lines)
	}
}

func TestRunSweepErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := runSweep([]string{}, &sink); err == nil {
		t.Error("no apps: expected error")
	}
	if err := runSweep([]string{"-apps", "no-such-app"}, &sink); err == nil {
		t.Error("unknown app: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-format", "yaml"}, &sink); err == nil {
		t.Error("bad format: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-bws", "fast"}, &sink); err == nil {
		t.Error("bad bandwidth: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-mechs", "psychic"}, &sink); err == nil {
		t.Error("bad mechanism: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-patterns", "diagonal"}, &sink); err == nil {
		t.Error("bad pattern: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-ranks", "two"}, &sink); err == nil {
		t.Error("bad ranks: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "stray"}, &sink); err == nil {
		t.Error("positional arg: expected error")
	}
}

// shardSweepArgs is a small two-axis grid shared by the shard CLI tests.
var shardSweepArgs = []string{
	"-apps", "pingpong", "-bws", "64MB/s,256MB/s", "-chunks", "4,8",
	"-mechs", "earlysend,both", "-size", "512", "-iters", "2",
}

func TestRunSweepShardMergeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")

	var unsharded bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, shardSweepArgs...), &unsharded); err != nil {
		t.Fatal(err)
	}

	shard1 := filepath.Join(dir, "shard1.json")
	shard2 := filepath.Join(dir, "shard2.json")
	for i, path := range []string{shard1, shard2} {
		var stdout bytes.Buffer
		args := append([]string{
			"-shard", fmt.Sprintf("%d/2", i+1), "-cache-dir", cache, "-o", path,
		}, shardSweepArgs...)
		if err := runSweep(args, &stdout); err != nil {
			t.Fatal(err)
		}
		if stdout.Len() != 0 {
			t.Errorf("shard %d leaked to stdout: %q", i+1, stdout.String())
		}
	}

	var merged bytes.Buffer
	if err := runMerge([]string{"-format", "csv", shard1, shard2}, &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unsharded.Bytes(), merged.Bytes()) {
		t.Errorf("merged shards differ from unsharded run:\n%s\n---\n%s",
			unsharded.String(), merged.String())
	}
}

func TestRunSweepShardRejectsFormat(t *testing.T) {
	var sink bytes.Buffer
	args := append([]string{"-shard", "1/2", "-format", "csv"}, shardSweepArgs...)
	if err := runSweep(args, &sink); err == nil || !strings.Contains(err.Error(), "merge") {
		t.Errorf("expected -format-with-shard error, got %v", err)
	}
	if err := runSweep(append([]string{"-shard", "9/2"}, shardSweepArgs...), &sink); err == nil {
		t.Error("out-of-range shard: expected error")
	}
}

func TestRunSweepCacheDirWarm(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	run := func() []byte {
		var out bytes.Buffer
		args := append([]string{"-format", "csv", "-cache-dir", cache}, shardSweepArgs...)
		if err := runSweep(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	cold := run()
	entries, err := os.ReadDir(cache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir not populated: %v (%d entries)", err, len(entries))
	}
	// -cache-dir persists both layers: trace/profile pairs and replay
	// results.
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[filepath.Ext(e.Name())]++
	}
	for _, ext := range []string{".trace", ".profile", ".replay"} {
		if kinds[ext] == 0 {
			t.Errorf("cache dir has no %s entries (have %v)", ext, kinds)
		}
	}
	warm := run()
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm-cache output differs:\n%s\n---\n%s", cold, warm)
	}
}

// TestRunSweepStreamOrderedByteIdentical: -stream-ordered flushes
// incrementally but a completed sweep's file is byte-identical to the
// batch path, format by format — and -out is an alias for -o.
func TestRunSweepStreamOrderedByteIdentical(t *testing.T) {
	args := append([]string{}, shardSweepArgs...)
	for _, format := range []string{"table", "csv", "json"} {
		var batch, ordered bytes.Buffer
		if err := runSweep(append([]string{"-format", format}, args...), &batch); err != nil {
			t.Fatal(err)
		}
		if err := runSweep(append([]string{"-stream-ordered", "-workers", "4", "-format", format}, args...), &ordered); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch.Bytes(), ordered.Bytes()) {
			t.Errorf("%s: -stream-ordered output differs from batch:\n%s\n---\n%s",
				format, batch.String(), ordered.String())
		}
	}

	path := filepath.Join(t.TempDir(), "ordered.csv")
	var stdout, batch bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, args...), &batch); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-stream-ordered", "-format", "csv", "-out", path}, args...), &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Errorf("results leaked to stdout with -out: %q", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), data) {
		t.Errorf("-stream-ordered -out file differs from batch output:\n%s\n---\n%s", batch.String(), data)
	}
}

func TestRunSweepStreamOrderedRejectsShard(t *testing.T) {
	var sink bytes.Buffer
	args := append([]string{"-stream-ordered", "-shard", "1/2"}, shardSweepArgs...)
	if err := runSweep(args, &sink); err == nil || !strings.Contains(err.Error(), "-stream-ordered") {
		t.Errorf("expected -stream-ordered-with-shard error, got %v", err)
	}
}

// TestRunSweepPlatformAxes drives the new axis flags end to end: a
// latencies x buscounts x colls grid over one app, with the dynamic CSV
// columns present and one row per platform point.
func TestRunSweepPlatformAxes(t *testing.T) {
	var out bytes.Buffer
	err := runSweep([]string{
		"-apps", "pingpong", "-size", "512", "-iters", "2", "-format", "csv",
		"-latencies", "5us,50us", "-buscounts", "1,8", "-colls", "log,linear",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1+8 {
		t.Fatalf("want header + 8 rows, got %d lines:\n%s", len(lines), out.String())
	}
	header := lines[0]
	for _, col := range []string{"latency_ns", "buses", "collective"} {
		if !strings.Contains(header, col) {
			t.Errorf("CSV header %q missing %q", header, col)
		}
	}
	if !strings.Contains(lines[1], ",5000,1,log,") {
		t.Errorf("first row missing platform values: %q", lines[1])
	}
}

// TestRunSweepRepeatableAxisFlags: repeating an axis flag appends, so the
// repeated form expands the same grid as the comma form.
func TestRunSweepRepeatableAxisFlags(t *testing.T) {
	var comma, repeated bytes.Buffer
	base := []string{"-apps", "pingpong", "-size", "512", "-iters", "2", "-format", "csv"}
	if err := runSweep(append(append([]string{}, base...), "-latencies", "5us,50us"), &comma); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append(append([]string{}, base...), "-latencies", "5us", "-latencies", "50us"), &repeated); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comma.Bytes(), repeated.Bytes()) {
		t.Errorf("repeated flags differ from comma form:\n%s\n---\n%s", comma.String(), repeated.String())
	}
}

func TestRunSweepPlatformAxisErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := runSweep([]string{"-apps", "pingpong", "-latencies", "soon"}, &sink); err == nil {
		t.Error("bad latency: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-colls", "magic"}, &sink); err == nil {
		t.Error("bad collective model: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-rpns", "0"}, &sink); err == nil {
		t.Error("rpn 0: expected error")
	}
	if err := runSweep([]string{"-apps", "pingpong", "-buscounts", "-1"}, &sink); err == nil {
		t.Error("negative bus count: expected error")
	}
}

// TestRunSweepPlatformShardMerge: the acceptance path — a platform-axes
// sweep sharded 2 ways with a shared cache merges byte-identically to the
// unsharded run.
func TestRunSweepPlatformShardMerge(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	args := []string{
		"-apps", "pingpong", "-size", "512", "-iters", "2",
		"-latencies", "5us,50us", "-buscounts", "1,8",
	}

	var unsharded bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, args...), &unsharded); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for k := 1; k <= 2; k++ {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.json", k))
		var stdout bytes.Buffer
		sargs := append([]string{"-shard", fmt.Sprintf("%d/2", k), "-cache-dir", cache, "-o", path}, args...)
		if err := runSweep(sargs, &stdout); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var merged bytes.Buffer
	if err := runMerge(append([]string{"-format", "csv"}, paths...), &merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unsharded.Bytes(), merged.Bytes()) {
		t.Errorf("merged platform-axes shards differ from unsharded run:\n%s\n---\n%s",
			unsharded.String(), merged.String())
	}
}

// TestRunSweepStreamKeepsStdoutClean: -stream reports to stderr only, so
// the final stdout output stays byte-identical.
func TestRunSweepStreamKeepsStdoutClean(t *testing.T) {
	var plain, streamed bytes.Buffer
	args := []string{"-apps", "pingpong", "-size", "256", "-iters", "1", "-format", "csv"}
	if err := runSweep(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-stream"}, args...), &streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), streamed.Bytes()) {
		t.Errorf("-stream perturbed stdout:\n%s\n---\n%s", plain.String(), streamed.String())
	}
}

func TestRunSweepProgressKeepsStdoutClean(t *testing.T) {
	var plain, progress bytes.Buffer
	args := []string{"-apps", "pingpong", "-size", "256", "-iters", "1", "-format", "csv"}
	if err := runSweep(args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(append([]string{"-progress"}, args...), &progress); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), progress.Bytes()) {
		t.Errorf("-progress perturbed stdout:\n%s\n---\n%s", plain.String(), progress.String())
	}
}

func TestRunMergeErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := runMerge([]string{}, &sink); err == nil {
		t.Error("no shards: expected error")
	}
	if err := runMerge([]string{filepath.Join(t.TempDir(), "nope.json")}, &sink); err == nil {
		t.Error("missing file: expected error")
	}
	garbage := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(garbage, []byte("not a shard"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := runMerge([]string{garbage}, &sink); err == nil {
		t.Error("garbage file: expected error")
	}
	if err := runMerge([]string{"-format", "yaml", garbage}, &sink); err == nil {
		t.Error("bad format: expected error")
	}
}

func TestParseMechanismCombos(t *testing.T) {
	ms, err := cliflag.ParseMechanisms([]string{"none", "earlysend", "laterecv", "both", "both+prepost"})
	if err != nil {
		t.Fatal(err)
	}
	want := []overlap.Mechanism{0, overlap.EarlySend, overlap.LateRecv,
		overlap.BothMechanisms, overlap.BothMechanisms | overlap.PrepostRecv}
	if len(ms) != len(want) {
		t.Fatalf("got %v, want %v", ms, want)
	}
	for i := range ms {
		if ms[i] != want[i] {
			t.Fatalf("element %d: got %v, want %v", i, ms[i], want[i])
		}
	}
}
