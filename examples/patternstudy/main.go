// Patternstudy reproduces the paper's central finding (E1) for one
// application: with the *measured* computation patterns the potential for
// automatic overlap is negligible, while the *ideal sequential* pattern
// unlocks a large benefit — and shows per-message profiles explaining why.
package main

import (
	"flag"
	"fmt"
	"log"
	"maps"
	"slices"

	"overlapsim"
	"overlapsim/internal/experiment"
	"overlapsim/internal/stats"
)

func main() {
	appName := flag.String("app", "bt", "application to study")
	flag.Parse()

	suite := experiment.NewSuite()
	study, err := suite.Study(*appName)
	if err != nil {
		log.Fatal(err)
	}
	bw, err := experiment.IntermediateBandwidth(study, suite.Machine)
	if err != nil {
		log.Fatal(err)
	}
	m := suite.Machine.WithBandwidth(bw)

	real, err := study.Compare(m, overlapsim.MeasuredOverlap())
	if err != nil {
		log.Fatal(err)
	}
	ideal, err := study.Compare(m, overlapsim.IdealOverlap())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at intermediate bandwidth %s:\n", *appName, bw)
	fmt.Printf("  real (measured) patterns: %+.1f%%\n", stats.PercentGain(real.Speedup()))
	fmt.Printf("  ideal (sequential) patterns: %+.1f%%\n\n", stats.PercentGain(ideal.Speedup()))

	// Show why: the measured per-chunk production points of the first few
	// annotated sends, as fractions of their burst. Values near 1.0 mean
	// the data is only produced at the very end of the computation — too
	// late to send anything early.
	fmt.Println("measured production points (fraction of burst, first 5 annotated sends):")
	shown := 0
	for rank, ann := range study.Profiled.Annotations {
		// Annotations are keyed by record index; walk them in record order
		// so the output is deterministic.
		for _, idx := range slices.Sorted(maps.Keys(ann)) {
			a := ann[idx]
			if a.Production == nil || shown >= 5 {
				continue
			}
			shown++
			fmt.Printf("  rank %2d record %3d: ", rank, idx)
			for _, off := range a.Production.Offsets {
				fmt.Printf("%.2f ", float64(off)/float64(a.Production.Burst))
			}
			fmt.Println()
		}
		if shown >= 5 {
			break
		}
	}
}
