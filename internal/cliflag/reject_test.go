package cliflag

import (
	"flag"
	"strings"
	"testing"

	"overlapsim/internal/overlap"
	"overlapsim/internal/units"
)

// The axis parsers are the CLI's input validation; their diagnostics name
// the offending flag and element so a typo in a 9-axis invocation is
// findable. One case per parser, asserting the message, not just non-nil.
func TestAxisRejectionMessages(t *testing.T) {
	cases := []struct {
		args []string
		frag string
	}{
		{[]string{"-ranks", "two"}, `bad -ranks element "two"`},
		{[]string{"-chunks", "many"}, `bad -chunks element "many"`},
		{[]string{"-buscounts", "several"}, `bad -buscounts element "several"`},
		{[]string{"-rpns", "a"}, `bad -rpns element "a"`},
		{[]string{"-bws", "fast"}, "bad -bws element"},
		{[]string{"-latencies", "soon"}, "bad -latencies element"},
		{[]string{"-eagers", "big"}, "bad eager-threshold value"},
		{[]string{"-mechs", "psychic"}, `bad -mechs element "psychic"`},
		{[]string{"-patterns", "diagonal"}, `bad -patterns element "diagonal" (want real or linear)`},
		{[]string{"-colls", "magic"}, "bad -colls element"},
		{[]string{"-gen-patterns", "warp"}, `bad -gen-patterns element "warp"`},
		{[]string{"-gen-msgs", "fast"}, `bad -gen-msgs element "fast"`},
		{[]string{"-gen-msg-dists", "gaussian"}, `bad -gen-msg-dists element "gaussian"`},
		{[]string{"-gen-computes", "lots"}, `bad -gen-computes element "lots"`},
		{[]string{"-gen-comp-dists", "gamma"}, `bad -gen-comp-dists element "gamma"`},
		{[]string{"-gen-imbalances", "skewed"}, `bad -gen-imbalances element "skewed"`},
		{[]string{"-gen-jitters", "noisy"}, `bad -gen-jitters element "noisy"`},
		{[]string{"-gen-degrees", "dense"}, `bad -gen-degrees element "dense"`},
		{[]string{"-gen-seeds", "random"}, `bad -gen-seeds element "random"`},
		{[]string{"-gen-imbalances", "0"}, "bad -gen-* combination"},
		{[]string{"-gen-jitters", "2"}, "bad -gen-* combination"},
		{[]string{"-gen-msgs", "64MB"}, "bad -gen-* combination"},
	}
	for _, c := range cases {
		_, err := parseAxes(t, c.args...)
		if err == nil {
			t.Errorf("args %v: expected error containing %q", c.args, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("args %v: error %q does not contain %q", c.args, err, c.frag)
		}
	}
}

// The surrogate knobs reject values the runner would not honour, naming
// the flag: a spot-check fraction of 0 would otherwise read as "use the
// default" and spot-check 5% anyway.
func TestApproxRejectionMessages(t *testing.T) {
	cases := []struct {
		args []string
		frag string // empty: accepted
	}{
		{[]string{"-approx-spotcheck", "0"}, "-approx-spotcheck must be in (0,1] (got 0)"},
		{[]string{"-approx-spotcheck", "-0.1"}, "-approx-spotcheck must be in (0,1]"},
		{[]string{"-approx-spotcheck", "1.5"}, "-approx-spotcheck must be in (0,1]"},
		{[]string{"-approx-maxerr", "0"}, "-approx-maxerr must be positive"},
		{[]string{"-approx-spotcheck", "0.0001"}, ""},
		{[]string{"-approx-spotcheck", "1"}, ""},
		{nil, ""},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		a := RegisterApprox(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		err := a.Validate()
		switch {
		case c.frag == "" && err != nil:
			t.Errorf("args %v: %v", c.args, err)
		case c.frag != "" && (err == nil || !strings.Contains(err.Error(), c.frag)):
			t.Errorf("args %v: error %v, want one containing %q", c.args, err, c.frag)
		}
	}
}

// ParseEagerThresholds accepts byte sizes with unit suffixes plus the
// "all" token (every message eager, encoded as a negative threshold).
func TestParseEagerThresholdsValues(t *testing.T) {
	got, err := ParseEagerThresholds([]string{"all", "0", "512", "32KB", "1MB"})
	if err != nil {
		t.Fatal(err)
	}
	want := []units.Bytes{-1, 0, 512, 32 * units.KB, units.MB}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ParseEagerThresholds([]string{"32QB"}); err == nil {
		t.Error("bad unit suffix accepted")
	}
}

// ParseMechanisms composes mechanism bits with "+"; every name and combo
// the -mechs help text promises must parse to the right bit set.
func TestParseMechanismsValues(t *testing.T) {
	got, err := ParseMechanisms([]string{"none", "earlysend", "laterecv", "both", "prepost", "earlysend+laterecv", "both+prepost"})
	if err != nil {
		t.Fatal(err)
	}
	want := []overlap.Mechanism{
		0,
		overlap.EarlySend,
		overlap.LateRecv,
		overlap.BothMechanisms,
		overlap.PrepostRecv,
		overlap.EarlySend | overlap.LateRecv,
		overlap.BothMechanisms | overlap.PrepostRecv,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := ParseMechanisms([]string{"earlysend+psychic"}); err == nil {
		t.Error("bad combo member accepted")
	}
}

// The machine flags reject malformed unit strings with the unit parser's
// diagnostic rather than a bare failure.
func TestMachineRejectionMessages(t *testing.T) {
	cases := []struct {
		args []string
		frag string
	}{
		{[]string{"-bw", "fast"}, "bandwidth"},
		{[]string{"-latency", "soon"}, "duration"},
		{[]string{"-overhead", "some"}, "duration"},
		{[]string{"-eager", "big"}, "size"},
		{[]string{"-preset", "carrier-pigeon"}, "preset"},
	}
	for _, c := range cases {
		m, _ := parse(t, c.args...)
		_, err := m.Config()
		if err == nil {
			t.Errorf("args %v: expected error containing %q", c.args, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("args %v: error %q does not contain %q", c.args, err, c.frag)
		}
	}
}

// Gen-axis expansion: explicit values cross with defaults in the fixed
// nesting order, and each spec is the canonical string form.
func TestGenAxesExpansion(t *testing.T) {
	g, err := parseAxes(t, "-gen-patterns", "ring,alltoall", "-gen-seeds", "1,2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"gen:ring,ranks=8,iters=4,msg=4096,msgdist=fixed,comp=20000,compdist=fixed,imb=1,jit=0,deg=3,seed=1",
		"gen:ring,ranks=8,iters=4,msg=4096,msgdist=fixed,comp=20000,compdist=fixed,imb=1,jit=0,deg=3,seed=2",
		"gen:alltoall,ranks=8,iters=4,msg=4096,msgdist=fixed,comp=20000,compdist=fixed,imb=1,jit=0,deg=3,seed=1",
		"gen:alltoall,ranks=8,iters=4,msg=4096,msgdist=fixed,comp=20000,compdist=fixed,imb=1,jit=0,deg=3,seed=2",
	}
	if len(g.Apps) != len(want) {
		t.Fatalf("Apps = %v, want %d specs", g.Apps, len(want))
	}
	for i := range want {
		if g.Apps[i] != want[i] {
			t.Errorf("Apps[%d] = %q, want %q", i, g.Apps[i], want[i])
		}
	}
	// Gen specs append after explicit -apps, preserving both.
	g, err = parseAxes(t, "-apps", "pingpong", "-gen-seeds", "5")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Apps) != 2 || g.Apps[0] != "pingpong" || !strings.HasPrefix(g.Apps[1], "gen:ring,") {
		t.Errorf("Apps = %v, want pingpong then a gen:ring spec", g.Apps)
	}
}
