package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
)

// updateGolden rewrites testdata/quick-all.golden from the current
// experiments instead of checking against it:
//
//	go test ./internal/experiment -run TestQuickAllGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick-all.golden")

const goldenPath = "testdata/quick-all.golden"

// TestQuickAllGolden pins the bytes of every experiment's table: each
// experiment of All runs, in registry order, on one quick Suite, framed
// the way `overlapsim run all` frames it, and the output must match the
// recorded golden exactly.
func TestQuickAllGolden(t *testing.T) {
	s := quickSuite()
	var out bytes.Buffer
	for _, d := range All {
		fmt.Fprintf(&out, "==== %s: %s ====\n", d.ID, d.Title)
		if err := d.Run(s, &out); err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		fmt.Fprintln(&out)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("quick experiment output differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
			goldenPath, out.String(), want)
	}
}
