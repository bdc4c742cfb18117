package main

import (
	"math"
	"sort"
)

// metricDef is one metric the benchmark promises to print. The tables
// below are the single definition; BENCHMARK.json mirrors them and a test
// keeps the two identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the model sees, printed by every
// workload on an untraced run. Bound is the share of the parent's median
// by which a metric may worsen before a change counts as a regression;
// each is above the largest run-to-run spread (interquartile range over
// median, ten seeds) measured on a shared 2-CPU host (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.24},
	{"op_ms_p50", "ms", "lower", 0.24},
	{"op_ms_p90", "ms", "lower", 0.24},
	{"mappings_per_s", "1/s", "higher", 0.24},
	{"rss_mb_p90", "MB", "lower", 0.1},
}

// perLayer are the metrics of single layers, printed by every workload on
// a traced run. Self-time shares are fractions of the traced op time; a
// layer a workload never calls reads 0.
var perLayer = []metricDef{
	{"mapper.self_frac", "ratio", "lower", 0},
	{"mapping.self_frac", "ratio", "lower", 0},
	{"core.cost_self_frac", "ratio", "lower", 0},
	{"core.prepare_self_frac", "ratio", "lower", 0},
	{"core.engine_self_frac", "ratio", "lower", 0},
	{"system.build_self_frac", "ratio", "lower", 0},
	{"valuesim.self_frac", "ratio", "lower", 0},
	{"serve.queue_frac", "ratio", "lower", 0},
	{"serve.cache_frac", "ratio", "lower", 0},
	{"serve.compile_frac", "ratio", "lower", 0},
	{"serve.search_frac", "ratio", "lower", 0},
	{"serve.self_frac", "ratio", "lower", 0},
	{"http.self_frac", "ratio", "lower", 0},
	{"trace_coverage_frac", "ratio", "higher", 0},
	{"trace_overhead_frac", "ratio", "lower", 0},
	{"mapper.fill_frac", "ratio", "higher", 0},
	{"serve.cache.hit_frac", "ratio", "higher", 0},
	{"serve.cache.compiles_per_op", "count", "lower", 0},
	{"serve.cache.evictions_per_op", "count", "lower", 0},
	{"serve.budget.blocked_per_op", "count", "lower", 0},
	{"serve.search.adaptive_plans_per_op", "count", "lower", 0},
	{"valuesim.err_mean_pct", "%", "lower", 0},
	{"valuesim.err_max_pct", "%", "lower", 0},
	{"runtime.alloc_kb_per_op", "KB", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

// set records a metric. A value with no samples behind it (NaN, or an
// infinite ratio) reads 0, which JSON can carry; such a run has failed
// ops and says so.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

// percentile returns the q-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// kindPercentile returns the q-th percentile of lat with every op read at
// the median latency of its kind, and the number of kinds. Ops of one
// kind do the same work on inputs of the same shape, so the percentile
// ranks the op mix's slow kinds. On a shared host single ops of one kind
// vary by 15-25% from moment to moment, and the percentile of single ops
// ranks that jitter instead: on a busy 2-CPU host its run-to-run spread
// (interquartile range over median, ten seeds) reached 0.28 where this
// one's stayed within 0.14.
func kindPercentile(lat []float64, kind []string, q float64) (float64, int) {
	by := map[string][]float64{}
	for i, k := range kind {
		by[k] = append(by[k], lat[i])
	}
	med := make(map[string]float64, len(by))
	for k, v := range by {
		med[k] = median(v)
	}
	xs := make([]float64, len(kind))
	for i, k := range kind {
		xs[i] = med[k]
	}
	return percentile(xs, q), len(by)
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread bounds are stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
