package replay

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/machine"
	"overlapsim/internal/overlap"
	"overlapsim/internal/trace"
	"overlapsim/internal/tracer"
	"overlapsim/internal/units"
)

// updateGolden rewrites testdata/contended_golden.json from the current
// replayer instead of checking against it:
//
//	go test ./internal/replay -run TestContendedGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/contended_golden.json")

const goldenPath = "testdata/contended_golden.json"

// goldenWorkloads names the applications the contended golden replays:
// paper apps at one iteration plus synthetic patterns whose traffic
// saturates buses and links in different ways (all-to-all floods every
// link, master-worker funnels through one node, random-sparse mixes both).
var goldenWorkloads = []string{
	"bt", "cg", "pop", "sweep3d",
	"gen:alltoall,ranks=8,iters=3,msg=8192,comp=20000,seed=3",
	"gen:masterworker,ranks=9,iters=3,msg=16384,comp=30000,seed=5",
	"gen:randomsparse,ranks=16,iters=3,msg=4096,comp=20000,deg=4,seed=7",
}

// goldenSets traces every golden workload once per process and returns
// its original set and one overlapped variant, in a fixed order.
var goldenSets = sync.OnceValues(func() ([]*trace.Set, error) {
	var out []*trace.Set
	for _, name := range goldenWorkloads {
		app, err := apps.New(name, apps.Config{Iterations: 1})
		if err != nil {
			return nil, err
		}
		ps, err := tracer.Trace(app, tracer.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ov, err := overlap.Transform(ps, overlap.Options{
			Mechanisms: overlap.BothMechanisms, Pattern: overlap.PatternLinear})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ps.Original.Name, ov.Name = name, name
		out = append(out, ps.Original, ov)
	}
	return out, nil
})

// goldenPlatforms is the full factorial of saturating platforms around
// machine.Default: bus counts, per-node link counts, rank placement and
// the eager threshold (0 makes every transfer a rendezvous).
func goldenPlatforms() []machine.Config {
	var out []machine.Config
	for _, buses := range []int{1, 2, 8} {
		for _, links := range []int{1, 2} {
			for _, rpn := range []int{1, 4} {
				for _, eager := range []units.Bytes{0, machine.Default().EagerThreshold} {
					c := machine.Default()
					c.Buses, c.InLinks, c.OutLinks = buses, links, links
					c.RanksPerNode = rpn
					c.EagerThreshold = eager
					c.Name = fmt.Sprintf("b%d-l%d-rpn%d-e%d", buses, links, rpn, eager)
					out = append(out, c)
				}
			}
		}
	}
	return out
}

// goldenCase is one pinned replay: everything contention arbitration can
// move, down to each rank's finish instant.
type goldenCase struct {
	Workload string       `json:"workload"`
	Variant  string       `json:"variant"`
	Platform string       `json:"platform"`
	Total    units.Time   `json:"total"`
	Steps    int64        `json:"steps"`
	Network  NetworkStats `json:"network"`
	Finish   []units.Time `json:"finish"`
	Err      string       `json:"err,omitempty"`
}

func runGolden(t *testing.T) []goldenCase {
	t.Helper()
	sets, err := goldenSets()
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenCase
	for _, ts := range sets {
		for _, cfg := range goldenPlatforms() {
			gc := goldenCase{Workload: ts.Name, Variant: ts.Variant, Platform: cfg.Name}
			res, err := Simulate(ts, cfg)
			if err != nil {
				gc.Err = err.Error()
				out = append(out, gc)
				continue
			}
			gc.Total, gc.Steps, gc.Network = res.Total, res.Steps, res.Network
			for _, r := range res.Ranks() {
				gc.Finish = append(gc.Finish, r.Finish)
			}
			out = append(out, gc)
		}
	}
	return out
}

// TestContendedGolden pins the contended start order end to end: the
// FIFO-with-skip arbitration of buses and links decides every queued
// transfer's start instant, so any change to which transfer starts when
// moves Total, Steps, the network stats (MaxPending, BusTime) or some
// rank's finish time against these expectations.
func TestContendedGolden(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, gc := range got {
			line, err := json.Marshal(gc)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(filepath.FromSlash(goldenPath), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	var queued bool
	for i := range got {
		g, w := got[i], want[i]
		id := fmt.Sprintf("%s/%s on %s", w.Workload, w.Variant, w.Platform)
		if g.Workload != w.Workload || g.Variant != w.Variant || g.Platform != w.Platform {
			t.Fatalf("case %d is %s/%s on %s, golden has %s", i, g.Workload, g.Variant, g.Platform, id)
		}
		if g.Total != w.Total || g.Steps != w.Steps || g.Network != w.Network {
			t.Errorf("%s: total %v steps %d network %+v, want total %v steps %d network %+v",
				id, g.Total, g.Steps, g.Network, w.Total, w.Steps, w.Network)
			continue
		}
		if !slices.Equal(g.Finish, w.Finish) {
			t.Errorf("%s: finish times %v, want %v", id, g.Finish, w.Finish)
		}
		queued = queued || w.Network.MaxPending > 1
	}
	if !queued {
		t.Error("no golden case queued a transfer: the platforms do not saturate")
	}
}
