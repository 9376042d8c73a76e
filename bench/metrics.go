package main

import (
	"math"
	"sort"
)

// metric is one reported number.  Name, Unit, Better and Bound are the
// BENCHMARK.json fields (Bound only for end-to-end metrics: the share of
// the baseline median by which it may worsen before it counts as a
// regression).  Per-layer metrics also say how the traced ops are
// aggregated into them.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`

	agg    aggKind
	source string // span or counter name the per-layer metric aggregates
}

type aggKind int

const (
	aggSpan   aggKind = iota // per-op median of the span's self time, ms
	aggMedian                // per-op median of a counter
	aggMean                  // per-op mean of a counter
	aggRun                   // computed by runWorkload from the whole run
)

// endToEnd are the numbers a user of the verifier sees, measured with
// tracing off.  The latency bound is as wide as the format allows while
// setup_s keeps the widest: on a shared 2-CPU host, slow spells of up to
// 1.6x lasting seconds to minutes spread the medians of ten runs by a
// fifth (README.md).
var endToEnd = []metric{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the numbers of single layers, measured by a traced run.
var perLayer = []metric{
	spanMetric("hdl.parse_ms", "hdl.parse"),
	spanMetric("expand.expand_ms", "expand.expand"),
	counter("expand.alloc_mb", "MB", aggMean),
	counter("expand.prims", "count", aggMean),
	spanMetric("netlist.levelize_ms", "netlist.levelize"),
	spanMetric("tape.compile_ms", "tape.compile"),
	spanMetric("verify.run_ms", "verify.run"),
	counter("verify.build_ms", "ms", aggMedian),
	counter("verify.relax_ms", "ms", aggMedian),
	counter("verify.check_ms", "ms", aggMedian),
	counter("verify.events", "count", aggMean),
	counter("verify.prim_evals", "count", aggMean),
	higher(counter("verify.memo_hit_ratio", "ratio", aggMean)),
	counter("verify.alloc_mb", "MB", aggMean),
	spanMetric("verify.update_ms", "verify.update"),
	counter("verify.reverify_ms", "ms", aggMedian),
	counter("verify.dirty_prims", "count", aggMean),
	counter("verify.reused_waves", "count", aggMean),
	higher(counter("verify.incremental_frac", "ratio", aggMean)),
	counter("pathsearch.analytic_ms", "ms", aggMedian),
	counter("pathsearch.dist_ms", "ms", aggMedian),
	counter("pathsearch.sites", "count", aggMean),
	spanMetric("verify.surface_eval_ms", "verify.surface_eval"),
	spanMetric("report.json_ms", "report.json"),
	counter("report.bytes", "count", aggMean),
	spanMetric("server.verify_cached_ms", "server.verify_cached"),
	spanMetric("server.verify_warm_ms", "server.verify_warm"),
	spanMetric("server.verify_cold_ms", "server.verify_cold"),
	spanMetric("server.session_create_ms", "server.session_create"),
	spanMetric("server.session_put_ms", "server.session_put"),
	spanMetric("server.session_report_ms", "server.session_report"),
	higher(counter("store.hit_ratio", "ratio", aggMean)),
	counter("store.warm_ratio", "ratio", aggMean),
	counter("server.rejected", "count", aggMean),
	{Name: "go.gc_cycles_per_op", Unit: "count", Better: "lower", agg: aggRun},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", agg: aggRun},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower", agg: aggRun},
}

func spanMetric(name, source string) metric {
	return metric{Name: name, Unit: "ms", Better: "lower", agg: aggSpan, source: source}
}

// counter is a per-layer metric read from the per-op counter of the
// same name.
func counter(name, unit string, agg aggKind) metric {
	return metric{Name: name, Unit: unit, Better: "lower", agg: agg, source: name}
}

// higher marks a ratio of useful outcomes, which is better higher.
func higher(m metric) metric {
	m.Better = "higher"
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
