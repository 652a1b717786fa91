// Bandwidthsweep regenerates the shape behind the paper's findings 2 and 3
// for one application: the overlap speedup across six decades of network
// bandwidth (peaking in the intermediate regime) and the iso-performance
// point showing how much bandwidth overlap saves at the high end.
//
// The application is traced exactly once (the single instrumented run of
// the paper's methodology); the bandwidth curve then fans its replays out
// over the sweep engine's worker pool and merges them in grid order, so
// the output is byte-identical for any -workers value.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"overlapsim"
	"overlapsim/internal/experiment"
	"overlapsim/internal/sweep"
	"overlapsim/internal/units"
)

func main() {
	appName := flag.String("app", "sweep3d", "application to sweep")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = one per CPU)")
	flag.Parse()

	suite := experiment.NewSuite()
	study, err := suite.Study(*appName)
	if err != nil {
		log.Fatal(err)
	}

	var bws []units.Bandwidth
	for bw := units.Bandwidth(units.MBPerSec); bw <= 64*units.GBPerSec; bw *= 4 {
		bws = append(bws, bw)
	}
	engine := sweep.Engine{Workers: *workers}
	fmt.Printf("%s: ideal-pattern automatic-overlap speedup vs bandwidth (%d points, %d workers)\n\n",
		*appName, len(bws), engine.WorkerCount())
	speedups, err := sweep.Map(engine, len(bws), func(i int) (float64, error) {
		cmp, err := study.Study.Compare(suite.Machine.WithBandwidth(bws[i]), overlapsim.IdealOverlap())
		if err != nil {
			return 0, err
		}
		return cmp.Speedup(), nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, sp := range speedups {
		bar := strings.Repeat("#", int((sp-1)*40))
		fmt.Printf("%10s  %5.2fx  %s\n", bws[i], sp, bar)
	}

	// The iso-performance point needs a bisection, not a grid: reuse the
	// same traced study for the search.
	ref := 32 * units.GBPerSec
	iso, ok, err := experiment.IsoBandwidth(study, suite.Machine, ref, overlapsim.IdealOverlap(), 0.02)
	if err != nil {
		log.Fatal(err)
	}
	if ok {
		fmt.Printf("\nto match the original execution at %s, the overlapped execution needs only %s (%.0fx less)\n",
			ref, iso, float64(ref)/float64(iso))
	} else {
		fmt.Printf("\nthe overlapped execution cannot match the original at %s on this platform\n", ref)
	}
}
