package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"overlapsim/internal/cliflag"
)

// platformAxisArgs is a platform-axis-only sweep on a contention-free
// base: the domain where the parallel replay engine engages.
var platformAxisArgs = []string{
	"-apps", "ring", "-ranks", "16",
	"-latencies", "5us,20us,50us", "-buscounts", "0",
	"-links", "0", "-buses", "0",
	"-size", "512", "-iters", "2",
}

// TestRunSweepReplayFlagsByteIdentical pins the output contract at the
// CLI: the parallel engine is a pure performance knob — every output
// format is byte-identical with it off and at any width.
func TestRunSweepReplayFlagsByteIdentical(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		var ref bytes.Buffer
		refArgs := append([]string{"-format", format}, platformAxisArgs...)
		if err := runSweep(refArgs, &ref); err != nil {
			t.Fatal(err)
		}
		if ref.Len() == 0 {
			t.Fatalf("%s: empty reference output", format)
		}
		for _, extra := range [][]string{
			{"-replay-par", "1"},
			{"-replay-par", "2"},
			{"-replay-par", "4"},
		} {
			var got bytes.Buffer
			args := append([]string{"-format", format}, extra...)
			if err := runSweep(append(args, platformAxisArgs...), &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Errorf("%s %v: output differs from the sequential reference", format, extra)
			}
		}
	}
}

// TestRunSweepWorkLineCounters: the sweep: work: line reports the
// parallel-window counter, and it moves when -replay-par is on.
func TestRunSweepWorkLineCounters(t *testing.T) {
	stderr := captureStderr(t, func() {
		var out bytes.Buffer
		if err := runSweep(append([]string{"-format", "csv", "-replay-par", "4"}, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	line := stderrLine(t, stderr, "sweep: work:")
	if strings.Contains(line, " 0 parallel windows") || !strings.Contains(line, "parallel windows") {
		t.Errorf("-replay-par 4 sweep reported no parallel windows: %q", line)
	}

	stderr = captureStderr(t, func() {
		var out bytes.Buffer
		if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	line = stderrLine(t, stderr, "sweep: work:")
	if !strings.Contains(line, " 0 parallel windows") {
		t.Errorf("sequential sweep should report zero parallel windows: %q", line)
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

// TestSpawnArgsForwardReplayFlags: campaign forwards the replay knobs to
// spawned workers exactly when they are non-default.
func TestSpawnArgsForwardReplayFlags(t *testing.T) {
	off := &cliflag.Approx{}
	rp := &cliflag.Replay{Par: 4}
	args := spawnArgs(0, "http://x", "", 1, rp, off, 0, "crash", 1)
	if i := slices.Index(args, "-replay-par"); i < 0 || args[i+1] != "4" {
		t.Errorf("spawn args missing -replay-par 4: %v", args)
	}
	rp = &cliflag.Replay{Par: 0}
	args = spawnArgs(0, "http://x", "", 1, rp, off, 0, "crash", 1)
	for _, a := range args {
		if strings.HasPrefix(a, "-replay") {
			t.Errorf("default replay knobs must not be forwarded: %v", args)
		}
	}
}

// TestSpawnArgsForwardApproxFlags: campaign forwards the surrogate knobs
// to spawned workers exactly when -approx is on, so each worker applies
// the same fast path to its chunks.
func TestSpawnArgsForwardApproxFlags(t *testing.T) {
	rp := &cliflag.Replay{}
	ap := &cliflag.Approx{Enabled: true, MaxErr: 0.01, SpotCheck: 0.5}
	args := spawnArgs(0, "http://x", "", 1, rp, ap, 0, "crash", 1)
	if !slices.Contains(args, "-approx") {
		t.Errorf("spawn args missing -approx: %v", args)
	}
	if i := slices.Index(args, "-approx-maxerr"); i < 0 || args[i+1] != "0.01" {
		t.Errorf("spawn args missing -approx-maxerr 0.01: %v", args)
	}
	if i := slices.Index(args, "-approx-spotcheck"); i < 0 || args[i+1] != "0.5" {
		t.Errorf("spawn args missing -approx-spotcheck 0.5: %v", args)
	}
	args = spawnArgs(0, "http://x", "", 1, rp, &cliflag.Approx{}, 0, "crash", 1)
	for _, a := range args {
		if strings.HasPrefix(a, "-approx") {
			t.Errorf("approx knobs must not be forwarded with -approx off: %v", args)
		}
	}
}

// TestReplayParEnvDefault: OVERLAPSIM_REPLAY_PAR sets the -replay-par
// default; an explicit flag still wins.
func TestReplayParEnvDefault(t *testing.T) {
	t.Setenv("OVERLAPSIM_REPLAY_PAR", "3")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	rp := cliflag.RegisterReplay(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if rp.Par != 3 {
		t.Fatalf("env default not applied: %+v", rp)
	}
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	rp = cliflag.RegisterReplay(fs)
	if err := fs.Parse([]string{"-replay-par", "8"}); err != nil {
		t.Fatal(err)
	}
	if rp.Par != 8 {
		t.Fatalf("explicit flag must beat the env default: %+v", rp)
	}
}

// TestRunCampaignWorkLineCounters: a campaign run with the replay knobs on
// reports the parallel-window work in its campaign: work: line,
// and its merged output still matches the plain unsharded sweep.
func TestRunCampaignWorkLineCounters(t *testing.T) {
	var want bytes.Buffer
	if err := runSweep(append([]string{"-format", "csv"}, platformAxisArgs...), &want); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	stderr := captureStderr(t, func() {
		args := []string{
			"-dir", filepath.Join(t.TempDir(), "camp"),
			"-cache-dir", t.TempDir(),
			"-local-workers", "2", "-replay-par", "4", "-format", "csv", "--",
		}
		if err := runCampaign(append(args, platformAxisArgs...), &out); err != nil {
			t.Error(err)
		}
	})
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Errorf("campaign with replay knobs diverges from plain sweep:\n%s\n---\n%s",
			out.String(), want.String())
	}
	line := stderrLine(t, stderr, "campaign: work:")
	if strings.Contains(line, " 0 parallel windows") || !strings.Contains(line, "parallel windows") {
		t.Errorf("campaign with -replay-par 4 reported no parallel windows: %q", line)
	}
}
