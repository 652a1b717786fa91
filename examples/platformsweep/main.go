// Platformsweep demonstrates the platform-dimension sweep axes: how much
// automatic overlap helps across a latency x buses grid on one traced
// application. Platform axes are replay-only — the whole grid shares a
// single instrumented run — so widening the platform coverage costs only
// replays, the cheap stage of the pipeline.
//
// A tee sink feeds every result to two legs: a logger that prints each
// point to stderr as it completes (unordered), and the batch table sink
// that writes the final table to stdout in stable grid order — the
// contract huge platform grids rely on for partial answers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"overlapsim"
)

func main() {
	appName := flag.String("app", "sweep3d", "application to sweep")
	workers := flag.Int("workers", 0, "sweep worker-pool size (0 = one per CPU)")
	flag.Parse()

	const us = overlapsim.Duration(1000) // durations are in nanoseconds
	grid := overlapsim.SweepGrid{
		Apps: []string{*appName},
		Latencies: []overlapsim.Duration{
			2 * us,   // modern fabric
			10 * us,  // the paper's baseline
			100 * us, // commodity Ethernet of the era
		},
		Buses:       []int{1, 8, 0}, // one shared bus, the default 8, no contention
		Collectives: []overlapsim.CollectiveModel{overlapsim.CollectivesLog},
	}

	runner := overlapsim.NewSweepRunner(overlapsim.DefaultMachine())
	runner.Engine = overlapsim.SweepEngine{Workers: *workers}
	fmt.Fprintf(os.Stderr, "%s: %d platform points, one instrumented run\n", *appName, grid.Size())

	table, err := overlapsim.NewBatchSweepSink(os.Stdout, "table")
	if err != nil {
		log.Fatal(err)
	}
	// The table's latency and buses columns appear because the grid sweeps
	// them.
	sink := overlapsim.NewTeeSweepSink(progressSink{}, table)
	if err := runner.RunSink(grid, sink); err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}

	st := runner.Stats()
	fmt.Fprintf(os.Stderr, "work: %d instrumented runs, %d replays for %d points\n",
		st.Traces, st.Replays, grid.Size())
}

// progressSink logs each completed point to stderr, in completion order.
type progressSink struct{}

func (progressSink) Accept(index int, res overlapsim.SweepResult) error {
	fmt.Fprintf(os.Stderr, "done point %d: %s: %.3fx\n", index, res.Point, res.Speedup)
	return nil
}

func (progressSink) Close() error { return nil }
