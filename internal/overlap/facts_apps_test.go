package overlap_test

import (
	"testing"

	"overlapsim/internal/apps"
	"overlapsim/internal/overlap"
	"overlapsim/internal/tracegen"
	"overlapsim/internal/tracer"
)

// smallApps sizes every registered application to trace in milliseconds.
var smallApps = map[string]apps.Config{
	"pingpong": {Ranks: 2, Size: 256, Iterations: 2},
	"ring":     {Ranks: 4, Size: 256, Iterations: 2},
	"halo2d":   {Ranks: 4, Size: 64, Iterations: 2},
	"bt":       {Ranks: 4, Size: 8, Iterations: 2},
	"cg":       {Ranks: 4, Size: 512, Iterations: 2},
	"pop":      {Ranks: 4, Size: 64, Iterations: 2},
	"alya":     {Ranks: 4, Size: 64, Iterations: 2},
	"specfem":  {Ranks: 4, Size: 64, Iterations: 2},
	"sweep3d":  {Ranks: 4, Size: 64, Iterations: 1},
	"lu":       {Ranks: 4, Size: 128, Iterations: 1},
	"mg":       {Ranks: 4, Size: 32, Iterations: 1},
	"ft":       {Ranks: 4, Size: 256, Iterations: 2},
}

// Every variant of every application and every tracegen pattern arrives
// with facts equal to the reference computations, across all mechanisms,
// patterns and chunk overrides up to 16 (the property test in
// overlap_test.go covers MaxChunks).
func TestTransformFactsMatchReference(t *testing.T) {
	profiled := map[string]*overlap.ProfiledSet{}
	for _, name := range apps.Names() {
		cfg, ok := smallApps[name]
		if !ok {
			t.Fatalf("no small configuration for app %q", name)
		}
		app, err := apps.New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := tracer.Trace(app, tracer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		profiled[name] = ps
	}
	for _, pat := range tracegen.PatternNames() {
		p, err := tracegen.ParsePattern(pat)
		if err != nil {
			t.Fatal(err)
		}
		spec := tracegen.DefaultSpec(p)
		ps, err := tracegen.Generate(spec, tracer.Options{Chunks: 4})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		profiled[spec.String()] = ps
	}
	for name, ps := range profiled {
		for m := overlap.Mechanism(0); m <= overlap.EarlySend|overlap.LateRecv|overlap.PrepostRecv; m++ {
			for _, pat := range []overlap.Pattern{overlap.PatternReal, overlap.PatternLinear} {
				for _, chunks := range []int{0, 1, 3, 16} {
					out, err := overlap.Transform(ps, overlap.Options{Mechanisms: m, Pattern: pat, Chunks: chunks})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := overlap.FactsMatch(out); err != nil {
						t.Errorf("%s %s: %v", name, out.Variant, err)
					}
				}
			}
		}
	}
}
