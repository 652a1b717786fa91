package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"overlapsim/internal/sweep"
)

// Expected outputs live in refs/<workload>.json, one entry per input
// variant. They are produced by -write-refs through the batch path (a
// fresh Runner with batching off and no caches, encoded by BatchSink), an
// execution path the timed workloads do not take, so every run checks the
// streamed, served, sharded and cached paths against it.

//go:embed refs
var refFS embed.FS

// variantRef is the expected output of one input variant.
type variantRef struct {
	// Digest is the CSV encoding's digest (digestWriter.sum) of an exact
	// grid; an approx grid is checked point by point against Exact.
	Digest string `json:"digest,omitempty"`
	// ExactReplays and Exact describe the exact run of an approx grid: its
	// replay count and each point's (TOriginal, TOverlap) in nanoseconds.
	ExactReplays int64      `json:"exact_replays,omitempty"`
	Exact        [][2]int64 `json:"exact,omitempty"`
	// Pool and Novel are the digests of the serve-mixed grids, in the order
	// servePool and serveNovel generate them.
	Pool  []string `json:"pool,omitempty"`
	Novel []string `json:"novel,omitempty"`
}

type refFile struct {
	Workload string       `json:"workload"`
	Variants []variantRef `json:"variants"`
}

// loadRef returns the stored reference of one workload variant.
func loadRef(workload string, v int) (*variantRef, error) {
	b, err := refFS.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("no reference for %s (regenerate with -write-refs): %w", workload, err)
	}
	var rf refFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("reference for %s: %w", workload, err)
	}
	if v >= len(rf.Variants) {
		return nil, fmt.Errorf("reference for %s has %d variants, want variant %d", workload, len(rf.Variants), v)
	}
	return &rf.Variants[v], nil
}

// batchRun runs an input through the reference path and returns its CSV
// digest, results and work counters.
func batchRun(in input) (string, []sweep.Result, sweep.Counters, error) {
	g, err := in.grid()
	if err != nil {
		return "", nil, sweep.Counters{}, err
	}
	r := in.runner()
	r.DisableBatch = true
	res, err := r.Run(g)
	if err != nil {
		return "", nil, sweep.Counters{}, err
	}
	d, err := csvDigest(res, in.approx())
	return d, res, r.Stats(), err
}

// csvDigest encodes results as the batch path does and returns the CSV
// digest.
func csvDigest(res []sweep.Result, approx bool) (string, error) {
	dw := newDigestWriter()
	bs := sweep.NewBatchSink(dw, sweep.FormatCSV)
	bs.SetApprox(approx)
	for i, x := range res {
		if err := bs.Accept(i, x); err != nil {
			return "", err
		}
	}
	if err := bs.Close(); err != nil {
		return "", err
	}
	return dw.sum(), nil
}

// computeRef derives one variant's reference; novel bounds how many
// serve-mixed novel grids get a digest.
func computeRef(workload string, v int, sc scale, novel int) (variantRef, error) {
	var ref variantRef
	var err error
	switch workload {
	case "paper-cold":
		ref.Digest, _, _, err = batchRun(paperColdInput(v, sc))
	case "dense-approx":
		in := denseApproxInput(v, sc)
		off := false
		in.Req.Approx = &off
		_, res, st, err := batchRun(in)
		if err != nil {
			return ref, err
		}
		ref.ExactReplays = st.Replays
		for _, x := range res {
			ref.Exact = append(ref.Exact, [2]int64{int64(x.TOriginal), int64(x.TOverlap)})
		}
	case "serve-mixed":
		for _, req := range servePool(v, sc) {
			d, _, _, err := batchRun(input{Req: req, Base: serveBase()})
			if err != nil {
				return ref, err
			}
			ref.Pool = append(ref.Pool, d)
		}
		for j := 0; j < novel; j++ {
			d, _, _, err := batchRun(input{Req: serveNovel(v, j, sc), Base: serveBase()})
			if err != nil {
				return ref, err
			}
			ref.Novel = append(ref.Novel, d)
		}
	case "campaign-warm":
		ref.Digest, _, _, err = batchRun(campaignInput(v, sc))
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	return ref, err
}

// writeRefs regenerates refs/<workload>.json for every workload under dir.
func writeRefs(dir string) error {
	for _, w := range workloadNames {
		rf := refFile{Workload: w}
		for v := 0; v < numVariants; v++ {
			ref, err := computeRef(w, v, scaleFull, serveNovelRefs)
			if err != nil {
				return fmt.Errorf("%s variant %d: %w", w, v, err)
			}
			rf.Variants = append(rf.Variants, ref)
			fmt.Fprintf(os.Stderr, "refs: %s variant %d done\n", w, v)
		}
		b, err := json.Marshal(rf)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
