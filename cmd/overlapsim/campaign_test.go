package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// campaignSpec is the sweep specification the campaign tests run — small
// enough to be quick, wide enough for several chunks.
var campaignSpec = []string{
	"-apps", "pingpong", "-bws", "64MB/s,256MB/s", "-chunks", "4,8",
	"-mechs", "earlysend,both", "-size", "256", "-iters", "2",
}

// TestRunCampaignByteIdentical is the command-level acceptance check: a
// campaign over local workers produces byte-identical output to the same
// sweep run unsharded, for every format.
func TestRunCampaignByteIdentical(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		var sweepOut, campOut bytes.Buffer
		if err := runSweep(append([]string{"-format", format}, campaignSpec...), &sweepOut); err != nil {
			t.Fatal(err)
		}
		args := []string{
			"-dir", filepath.Join(t.TempDir(), "camp"),
			"-cache-dir", t.TempDir(),
			"-local-workers", "3", "-chunk-points", "2", "-format", format, "--",
		}
		if err := runCampaign(append(args, campaignSpec...), &campOut); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sweepOut.Bytes(), campOut.Bytes()) {
			t.Errorf("%s: campaign output differs from the unsharded sweep:\n%s\n---\n%s",
				format, sweepOut.String(), campOut.String())
		}
		if campOut.Len() == 0 {
			t.Errorf("%s: empty campaign output", format)
		}
	}
}

// TestRunCampaignResume: a fresh campaign refuses a directory holding a
// journal, and -resume over a finished campaign skips straight to the
// merge — no workers, no runs — with identical output.
func TestRunCampaignResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "camp")
	cache := t.TempDir()
	base := []string{"-dir", dir, "-cache-dir", cache, "-local-workers", "2", "-format", "csv", "--"}

	var first bytes.Buffer
	if err := runCampaign(append(base, campaignSpec...), &first); err != nil {
		t.Fatal(err)
	}
	// Same directory without -resume: refused, pointing at -resume.
	err := runCampaign(append(base, campaignSpec...), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("re-run without -resume: %v, want refusal mentioning -resume", err)
	}
	// -resume over the finished campaign: identical bytes from the journal
	// and chunk files alone.
	var resumed bytes.Buffer
	args := append([]string{"-resume"}, base...)
	if err := runCampaign(append(args, campaignSpec...), &resumed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), resumed.Bytes()) {
		t.Error("resumed output differs from the original campaign output")
	}
	// A different sweep spec cannot resume someone else's journal.
	other := append([]string{"-resume"}, base...)
	err = runCampaign(append(other, "-apps", "ring", "-size", "256", "-iters", "1"), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("resume with different spec: %v, want identity error", err)
	}
}

// TestParseSweepSpec pins the shared spec parser's guardrails: positional
// arguments and unknown flags are rejected (ContinueOnError surfaces them
// as errors, not os.Exit), and a valid spec round-trips.
func TestParseSweepSpec(t *testing.T) {
	spec, err := parseSweepSpec(campaignSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.grid.Size(); got != 8 {
		t.Errorf("grid size %d, want 8", got)
	}
	if spec.size != 256 || spec.iters != 2 {
		t.Errorf("size/iters = %d/%d, want 256/2", spec.size, spec.iters)
	}
	if _, err := parseSweepSpec([]string{"-apps", "pingpong", "stray"}); err == nil {
		t.Error("positional argument accepted")
	}
	if _, err := parseSweepSpec([]string{"-apps", "no-such-app"}); err == nil {
		t.Error("unknown app accepted")
	}
}
