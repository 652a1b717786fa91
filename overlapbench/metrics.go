package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced runs. A "request" is one call a user makes and
// waits on: a sweep (paper-cold, dense-approx), a campaign (campaign-warm)
// or an HTTP POST /sweeps (serve-mixed); sweep_s is one unit of work, which
// on serve-mixed is one round of the request mix.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"req_p50_ms", "ms"},
	{"req_tail_ms", "ms"},
	{"ttfb_p50_ms", "ms"},
	{"req_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics; see README.md for the layer and
// end-to-end metric each should move.
var perLayer = []metricDef{
	{"tracer.runs", "count"},
	{"tracer.busy_s", "s"},
	{"overlap.transforms", "count"},
	{"overlap.busy_s", "s"},
	{"validate.busy_s", "s"},
	{"replay.runs", "count"},
	{"replay.batched", "count"},
	{"replay.busy_s", "s"},
	{"replay.des_steps", "count"},
	{"replay.ns_per_step", "ns/step"},
	{"replay.parallel_windows", "count"},
	{"sweep.memo_hits", "count"},
	{"sweep.memo_hit_ratio", "ratio"},
	{"sweep.first_result_s", "s"},
	{"sweep.cpu_util", "ratio"},
	{"surrogate.predicted", "count"},
	{"surrogate.spot_checks", "count"},
	{"surrogate.demoted", "count"},
	{"surrogate.replay_frac", "ratio"},
	{"surrogate.max_rel_err", "ratio"},
	{"tracecache.hits", "count"},
	{"tracecache.load_busy_s", "s"},
	{"replaystore.hits", "count"},
	{"replaystore.writes", "count"},
	{"replaystore.load_busy_s", "s"},
	{"replaystore.store_busy_s", "s"},
	{"merge.busy_s", "s"},
	{"sink.accept_busy_s", "s"},
	{"sink.close_busy_s", "s"},
	{"sink.bytes", "B"},
	{"serve.warm_req_p50_ms", "ms"},
	{"serve.cold_req_p50_ms", "ms"},
	{"serve.rejected", "count"},
	{"campaign.chunks", "count"},
	{"campaign.leases", "count"},
	{"campaign.lease_busy_s", "s"},
	{"campaign.complete_busy_s", "s"},
	{"campaign.assemble_s", "s"},
	{"host.cpu_s", "s"},
	{"host.alloc_mb", "MB"},
	{"host.gc_cycles", "count"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.spans", "count"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is tried from the top: the reported tail is the highest of
// these percentiles that leaves at least ten samples beyond it.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile with at least ten samples beyond it
// (nearest rank), the percentile, and how many samples lie beyond. With
// too few samples for any of them it returns the ladder's lowest rung: the
// maximum of a handful of samples would measure the host's worst moment,
// not the program.
func tail(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 100, 0
	}
	idx := 0
	for _, pct = range tailLadder {
		idx = max(int(math.Ceil(pct/100*float64(n)))-1, 0)
		if n-1-idx >= 10 {
			break
		}
	}
	return s[idx], pct, n - 1 - idx
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// host resource snapshots from getrusage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size (Linux reports KB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
