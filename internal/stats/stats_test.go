package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSpeedupAndPercent(t *testing.T) {
	if got := PercentGain(1.3); math.Abs(got-30) > 1e-9 {
		t.Errorf("PercentGain = %v, want 30", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("app", "speedup", "note")
	tb.AddRow("sweep3d", "2.60x", "wavefront")
	tb.AddRow("cg", "1.10x", "collectives-bound")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "app     ") {
		t.Errorf("header not aligned: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-------") {
		t.Errorf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "sweep3d  2.60x") {
		t.Errorf("row alignment: %q", lines[2])
	}
}
