package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"overlapsim/internal/cliflag"
)

// platformAxisArgs is a platform-axis-only sweep on a contention-free
// base at 32 ranks: the domain where the runner picks the parallel replay
// engine whenever it has two execution slots.
var platformAxisArgs = []string{
	"-apps", "ring", "-ranks", "32",
	"-latencies", "5us,20us,50us", "-buscounts", "0",
	"-links", "0", "-buses", "0",
	"-size", "512", "-iters", "2",
}

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestRunSweepReplayEngineByteIdentical pins the output contract at the
// CLI: the replay engine the runner picks from the core count is a pure
// performance choice — every output format at GOMAXPROCS 2 and 4 (window
// engine) is byte-identical to GOMAXPROCS 1 (sequential).
func TestRunSweepReplayEngineByteIdentical(t *testing.T) {
	sweepAt := func(procs int, format string) []byte {
		setProcs(t, procs)
		var out bytes.Buffer
		if err := runSweep(append([]string{"-format", format}, platformAxisArgs...), &out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	for _, format := range []string{"table", "csv", "json"} {
		ref := sweepAt(1, format)
		if len(ref) == 0 {
			t.Fatalf("%s: empty reference output", format)
		}
		for _, procs := range []int{2, 4} {
			if !bytes.Equal(sweepAt(procs, format), ref) {
				t.Errorf("%s at GOMAXPROCS=%d: output differs from the sequential reference", format, procs)
			}
		}
	}
}

// TestRunSweepWorkLineCounters: the sweep: work: line reports the
// parallel-window counter; it moves with two execution slots and stays
// 0 with one.
func TestRunSweepWorkLineCounters(t *testing.T) {
	workLineAt := func(procs int) string {
		setProcs(t, procs)
		stderr := captureStderr(t, func() {
			var out bytes.Buffer
			if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &out); err != nil {
				t.Error(err)
			}
		})
		return stderrLine(t, stderr, "sweep: work:")
	}
	if line := workLineAt(2); strings.Contains(line, " 0 parallel windows") || !strings.Contains(line, "parallel windows") {
		t.Errorf("GOMAXPROCS=2 sweep reported no parallel windows: %q", line)
	}
	if line := workLineAt(1); !strings.Contains(line, " 0 parallel windows") {
		t.Errorf("GOMAXPROCS=1 sweep should report zero parallel windows: %q", line)
	}
}

// stderrLine extracts the work-accounting line with the given prefix from
// captured stderr.
func stderrLine(t *testing.T, stderr, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no %q line in stderr:\n%s", prefix, stderr)
	return ""
}

// captureStderr runs f with os.Stderr redirected to a pipe and returns
// what was written.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		os.Stderr = old
	}()
	f()
	w.Close()
	os.Stderr = old
	return <-done
}

// TestRunSweepProfiles: -cpuprofile and -memprofile write pprof files on
// exit.
func TestRunSweepProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out bytes.Buffer
	args := append([]string{"-format", "csv", "-cpuprofile", cpu, "-memprofile", mem}, platformAxisArgs...)
	if err := runSweep(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestSpawnArgsForwardApproxFlags: campaign forwards the surrogate knobs
// to spawned workers exactly when -approx is on, so each worker applies
// the same fast path to its chunks.
func TestSpawnArgsForwardApproxFlags(t *testing.T) {
	ap := &cliflag.Approx{Enabled: true, MaxErr: 0.01, SpotCheck: 0.5}
	args := spawnArgs(0, "http://x", "", 1, ap, 0, "crash", 1)
	if !slices.Contains(args, "-approx") {
		t.Errorf("spawn args missing -approx: %v", args)
	}
	if i := slices.Index(args, "-approx-maxerr"); i < 0 || args[i+1] != "0.01" {
		t.Errorf("spawn args missing -approx-maxerr 0.01: %v", args)
	}
	if i := slices.Index(args, "-approx-spotcheck"); i < 0 || args[i+1] != "0.5" {
		t.Errorf("spawn args missing -approx-spotcheck 0.5: %v", args)
	}
	args = spawnArgs(0, "http://x", "", 1, &cliflag.Approx{}, 0, "crash", 1)
	for _, a := range args {
		if strings.HasPrefix(a, "-approx") {
			t.Errorf("approx knobs must not be forwarded with -approx off: %v", args)
		}
	}
}

// TestRunCampaignWorkLineCounters: a campaign run with two execution
// slots reports the parallel-window work in its campaign: work: line, and
// its merged output still matches the plain unsharded sweep.
func TestRunCampaignWorkLineCounters(t *testing.T) {
	setProcs(t, 2)
	var want bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &want); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stderr := captureStderr(t, func() {
		args := []string{
			"-dir", filepath.Join(t.TempDir(), "camp"),
			"-cache-dir", t.TempDir(),
			"-local-workers", "2", "-format", "csv", "--",
		}
		if err := runCampaign(append(args, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("campaign diverges from plain sweep:\n%s\n---\n%s",
			out.String(), want.String())
	}
	line := stderrLine(t, stderr, "campaign: work:")
	if strings.Contains(line, " 0 parallel windows") || !strings.Contains(line, "parallel windows") {
		t.Errorf("campaign at GOMAXPROCS=2 reported no parallel windows: %q", line)
	}
}
