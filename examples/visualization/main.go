// Visualization demonstrates the Paraver stage: the non-overlapped and
// overlapped executions of the wavefront code rendered side by side on a
// shared time scale, plus Paraver-style .prv files written to a directory.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"overlapsim"
	"overlapsim/internal/experiment"
)

func main() {
	appName := flag.String("app", "sweep3d", "application to visualize")
	outDir := flag.String("out", "", "directory for .prv dumps (empty = skip)")
	width := flag.Int("width", 100, "gantt width in columns")
	flag.Parse()

	suite := experiment.NewSuite()
	study, err := suite.Study(*appName)
	if err != nil {
		log.Fatal(err)
	}

	// Pick the bandwidth where communication is comparable to computation
	// so the qualitative difference is at its clearest.
	bw, err := experiment.IntermediateBandwidth(study, suite.Machine)
	if err != nil {
		log.Fatal(err)
	}
	m := suite.Machine.WithBandwidth(bw)

	cmp, err := study.Study.Compare(m, overlapsim.IdealOverlap())
	if err != nil {
		log.Fatal(err)
	}
	if err := cmp.RenderGantt(os.Stdout, *width); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := cmp.WriteSummaries(os.Stdout); err != nil {
		log.Fatal(err)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		origPath := filepath.Join(*outDir, *appName+"-original.prv")
		overPath := filepath.Join(*outDir, *appName+"-overlap.prv")
		fo, err := os.Create(origPath)
		if err != nil {
			log.Fatal(err)
		}
		defer fo.Close()
		fv, err := os.Create(overPath)
		if err != nil {
			log.Fatal(err)
		}
		defer fv.Close()
		if err := cmp.WritePRV(fo, fv); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s and %s\n", origPath, overPath)
	}
}
