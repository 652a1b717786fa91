package main

import (
	"fmt"
	"math"

	"overlapsim/internal/machine"
	"overlapsim/internal/serve"
	"overlapsim/internal/sweep"
)

// The seeded input generator. A seed selects one of numVariants input
// variants (seed mod numVariants); every grid, the serve request order and
// the novel gen seeds derive from it. Variants exist so that the expected
// outputs can be stored (refs/): a variant's inputs, and therefore its
// reference digests, never change. The program under test only ever sees
// the generated sweep requests.

const numVariants = 8

// scale shrinks every workload for the benchmark's own tests.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// rng is splitmix64: tiny, seedable, and identical on every platform.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x6f7665726c6170}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// variantOf maps any seed onto a stored input variant.
func variantOf(seed int64) int {
	return int(((seed % numVariants) + numVariants) % numVariants)
}

// input is one sweep as a user submits it: the request (the same JSON a
// client POSTs to `overlapsim serve`) plus the platform it starts from.
type input struct {
	Req  serve.SweepRequest
	Base machine.Config
	// ReplayPar is the runner's parallel replay width (0 = sequential).
	ReplayPar int
}

// grid parses the request into the sweep grid every surface runs.
func (in input) grid() (sweep.Grid, error) {
	g, err := in.Req.Grid()
	if err != nil {
		return g, err
	}
	return g, g.Validate()
}

// approx reports whether the request turns the surrogate fast path on.
func (in input) approx() bool { return in.Req.Approx != nil && *in.Req.Approx }

// runner returns a fresh runner configured for the input, with no caches.
func (in input) runner() *sweep.Runner {
	r := sweep.NewRunner(in.Base)
	r.Size = in.Req.Size
	r.Iters = in.Req.Iters
	r.ReplayPar = in.ReplayPar
	r.Approx = in.approx()
	return r
}

// logSpaced returns n values from lo growing by ratio per step, jittered as
// one block by the factor j, rendered with the unit suffix as integers so
// the request parsers read them back exactly.
func logSpaced(n int, lo, ratio, j float64, suffix string) []string {
	out := make([]string, n)
	v := lo * j
	for i := range out {
		out[i] = fmt.Sprintf("%d%s", int64(v+0.5), suffix)
		v *= ratio
	}
	return out
}

// jitter returns a factor in [2^-w, 2^w).
func (r *rng) jitter(w float64) float64 { return math.Exp2((r.float()*2 - 1) * w) }

var paperApps = []string{"bt", "cg", "ft", "lu", "mg", "pop", "sweep3d", "specfem", "alya"}

var allMechanisms = []string{"none", "earlysend", "laterecv", "both"}

// paperColdInput is the paper's evaluation shape: the paper applications
// at their default ranks and problem sizes on the default contended
// platform, over two bandwidths a factor of four apart (so platform-axis
// batching applies), chunks {4,8,16}, the four mechanisms and both
// patterns. Each application runs one outer iteration instead of its
// default two to four, so a sweep takes a few seconds and a run measures
// enough of them for a steady median.
func paperColdInput(v int, sc scale) input {
	r := newRNG(1, uint64(v))
	bws := logSpaced(2, 256*1024, 4, r.jitter(0.25), "KB/s")
	req := serve.SweepRequest{
		Apps:       paperApps,
		Iters:      1,
		Bandwidths: bws,
		Chunks:     []int{4, 8, 16},
		Mechanisms: allMechanisms,
		Patterns:   []string{"real", "linear"},
	}
	if sc == scaleTiny {
		req.Apps = []string{"cg", "pop"}
		req.Chunks = []int{4, 8}
		req.Mechanisms = []string{"none", "both"}
		req.Size, req.Iters = 64, 1
	}
	return input{Req: req, Base: machine.Default()}
}

// contentionFree is the default platform without buses or link limits:
// the only platform the window-parallel DES accepts.
func contentionFree() machine.Config {
	m := machine.Default()
	m.Buses, m.InLinks, m.OutLinks = 0, 0, 0
	return m
}

// denseApproxInput is a dense bandwidth x latency log grid over two
// synthetic 128-rank workloads on a contention-free platform, with the
// surrogate fast path on and two-way window-parallel replay.
func denseApproxInput(v int, sc scale) input {
	r := newRNG(2, uint64(v))
	on := true
	ranks, nbw, nlat := 128, 16, 12
	if sc == scaleTiny {
		ranks, nbw, nlat = 16, 6, 4
	}
	req := serve.SweepRequest{
		Apps: []string{
			fmt.Sprintf("gen:ring,ranks=%d,jit=0.2,seed=%d", ranks, 1+r.intn(1000)),
			fmt.Sprintf("gen:randomsparse,ranks=%d,jit=0.2,seed=%d", ranks, 1+r.intn(1000)),
		},
		// 32MB/s .. 8GB/s and 4us .. 4ms, log-spaced, shifted per variant.
		// Latency is the parallel DES's lookahead: below a few microseconds
		// its windows hold so few events that the per-window hand-off between
		// cores costs what the second core saves, and the sweep's time follows
		// the host's wake-up latency more than the program.
		Bandwidths: logSpaced(nbw, 32*1024, math.Pow(256, 1/float64(nbw-1)), r.jitter(0.25), "KB/s"),
		Latencies:  logSpaced(nlat, 4000, math.Pow(1000, 1/float64(nlat-1)), r.jitter(0.25), "ns"),
		Approx:     &on,
	}
	return input{Req: req, Base: contentionFree(), ReplayPar: 2}
}

// servePoolSize is how many distinct grids the warm share of serve-mixed
// traffic repeats; serveRound is one round of the request mix: every pool
// grid once plus serveNovelPerRound never-seen grids (80% / 20%).
const (
	servePoolSize      = 16
	serveNovelPerRound = 4
	serveRound         = servePoolSize + serveNovelPerRound
	serveNovelRefs     = 512
)

var servePatterns = []string{"ring", "stencil2d", "randomsparse", "masterworker"}

// serveRequest is one small grid of the serve-mixed traffic: a 16-rank
// synthetic workload over four bandwidths, two chunk counts and two
// mechanisms. Pool grids and novel grids differ only in their gen seed, so
// a novel request costs an instrumented run, its replays and store writes,
// where a pool request is answered from the shared cache.
func serveRequest(pattern string, genSeed uint64, r *rng, sc scale) serve.SweepRequest {
	ranks, iters := 16, 6
	if sc == scaleTiny {
		ranks, iters = 8, 2
	}
	return serve.SweepRequest{
		Apps:       []string{fmt.Sprintf("gen:%s,ranks=%d,iters=%d,jit=0.1,seed=%d", pattern, ranks, iters, genSeed)},
		Bandwidths: logSpaced(4, 64*1024, 4, r.jitter(0.25), "KB/s"),
		Chunks:     []int{4, 8},
		Mechanisms: []string{"earlysend", "both"},
		Format:     "csv",
	}
}

// servePool returns the variant's warm pool.
func servePool(v int, sc scale) []serve.SweepRequest {
	r := newRNG(3, uint64(v))
	out := make([]serve.SweepRequest, servePoolSize)
	for i := range out {
		out[i] = serveRequest(servePatterns[i%len(servePatterns)], uint64(1+i), r, sc)
	}
	return out
}

// serveNovel returns the variant's j-th never-repeated grid; its gen seed
// is outside the pool's range, so nothing in the cache answers it.
func serveNovel(v, j int, sc scale) serve.SweepRequest {
	r := newRNG(4, uint64(v), uint64(j))
	return serveRequest(servePatterns[j%len(servePatterns)], uint64(1000+j), r, sc)
}

// serveOrder is the request order of one round: indices < servePoolSize
// name pool grids, the rest the round's novel grids in order. It depends on
// the full seed, not just the variant, since it changes no expected output.
func serveOrder(seed int64, round int) []int {
	r := newRNG(5, uint64(seed), uint64(round))
	order := make([]int, serveRound)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// campaignInput is a 1728-point grid of small apps, run as a campaign of
// 4-point chunks over a cache warmed in set-up.
func campaignInput(v int, sc scale) input {
	r := newRNG(6, uint64(v))
	req := serve.SweepRequest{
		Apps:       []string{"pingpong", "ring", "halo2d"},
		Size:       512,
		Iters:      2,
		Bandwidths: logSpaced(8, 64*1024, 2, r.jitter(0.25), "KB/s"),
		Latencies:  logSpaced(6, 1000, 4, r.jitter(0.25), "ns"),
		Chunks:     []int{4, 8, 16},
		Mechanisms: allMechanisms,
	}
	if sc == scaleTiny {
		req.Apps = []string{"pingpong", "ring"}
		req.Size = 64
		req.Bandwidths = req.Bandwidths[:2]
		req.Latencies = req.Latencies[:2]
		req.Chunks = []int{4}
	}
	return input{Req: req, Base: machine.Default()}
}
