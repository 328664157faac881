package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (metrics_test.go
// checks that they do).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the server sees. Every workload
// reports all of them; see README.md for what each means per workload.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"reload_ready_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, one group per layer (Go
// package) of pathcomplete. A metric whose layer the workload does not
// exercise reads 0 on that workload.
var perLayer = []metricDef{
	{"server.self_us", "us", "lower"},
	{"server.allocs_per_req", "count", "lower"},
	{"server.resp_bytes", "bytes", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.closure_share", "ratio", "higher"},
	{"server.singleflight_shared", "count", "higher"},
	{"pathexpr.parse_us", "us", "lower"},
	{"registry.acquire_ns", "ns", "lower"},
	{"registry.reload_ms", "ms", "lower"},
	{"sdl.parse_ms", "ms", "lower"},
	{"closure.lookup_ns", "ns", "lower"},
	{"closure.build_s", "s", "lower"},
	{"closure.reused_cells_ratio.removal", "ratio", "higher"},
	{"closure.reused_cells_ratio.readd", "ratio", "higher"},
	{"core.search_us.single", "us", "lower"},
	{"core.search_us.e_override", "us", "lower"},
	{"core.search_us.regex", "us", "lower"},
	{"core.search_us.predicate", "us", "lower"},
	{"core.search_us.multigap", "us", "lower"},
	{"core.calls_per_query", "count", "lower"},
	{"core.ns_per_call", "ns", "lower"},
	{"core.pruned_per_call", "ratio", "higher"},
	{"core.fresh_completer_us", "us", "lower"},
	{"core.frontier_advance_us", "us", "lower"},
	{"core.frontier_cold_cells", "count", "lower"},
	{"core.frontier_reuse_ratio", "ratio", "higher"},
	{"gapre.compile_us", "us", "lower"},
	{"gapre.overhead_us", "us", "lower"},
	{"session.frames_per_keystroke", "count", "lower"},
	{"session.skipped_ratio", "ratio", "lower"},
	{"session.rebind_ms", "ms", "lower"},
	{"ws.bytes_per_keystroke", "bytes", "lower"},
	{"persist.restore_ms", "ms", "lower"},
	{"persist.save_ms", "ms", "lower"},
	{"persist.file_bytes", "bytes", "lower"},
	{"gen.late_ms", "ms", "lower"},
	{"split.server_self", "ratio", "lower"},
	{"split.pathexpr", "ratio", "lower"},
	{"split.registry", "ratio", "lower"},
	{"split.closure", "ratio", "lower"},
	{"split.core", "ratio", "lower"},
	{"trace.spans", "count", "lower"},
	{"overhead.throughput_rps", "1/s", "higher"},
	{"overhead.latency_p50_us", "us", "lower"},
	{"overhead.latency_p99_us", "us", "lower"},
	{"overhead.reload_ready_ms", "ms", "lower"},
	{"overhead.setup_s", "s", "lower"},
	{"overhead.live_heap_mb", "MB", "lower"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render fills every metric of defs from vals; a metric the run did not
// measure reads 0.
func render(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
