package main

import (
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a user of the
// coloring pipeline sees.
var endToEnd = []metricDef{
	{"color_s", "s"},
	{"setup_s", "s"},
	{"colors", "count"},
	{"palette", "count"},
	{"rounds", "count"},
	{"messages", "count"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// phaseNames are the Tally phases of the three workloads, with the
// "(d=...)" suffix of the deltacolor phases aggregated away. The first
// five belong to Legal-Coloring, the last four to ColorDeltaPlusOne; a
// phase a workload does not run reports zero.
var phaseNames = []string{
	"h-partition", "level-coloring", "orientation", "simple-arbdefective", "final-greedy",
	"defective", "base-linial", "base-reduce", "merge",
}

var phaseFields = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"compute_s", "s"},
	{"rounds", "count"},
	{"messages", "count"},
}

// layerExtras are the per-layer metrics outside the phase table.
var layerExtras = []metricDef{
	{"core.central_s", "s"},
	{"check.legal_s", "s"},
	{"dist.runs", "count"},
	{"dist.setup_s", "s"},
	{"dist.compute_s", "s"},
	{"dist.topo_hit_ratio", "ratio"},
	{"dist.msgs_per_compute_s", "1/s"},
	{"dist.barrier_wait_s", "s"},
	{"graph.load_s", "s"},
	{"dist.network_s", "s"},
	{"field.evals", "count"},
	{"field.row_hit_ratio", "ratio"},
	{"field.fallbacks", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"trace.color_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.residual_s", "s"},
}

// perLayer lists every metric a traced run reports.
func perLayer() []metricDef {
	var defs []metricDef
	for _, p := range phaseNames {
		for _, f := range phaseFields {
			defs = append(defs, metricDef{"phase." + p + "." + f.name, f.unit})
		}
	}
	return append(defs, layerExtras...)
}

// phaseKey maps a Tally phase name ("merge(d=8)") or a probe phase label
// ("deltacolor/merge(d=8)") to its aggregated phase name ("merge").
func phaseKey(label string) string {
	if i := strings.LastIndexByte(label, '/'); i >= 0 {
		label = label[i+1:]
	}
	if i := strings.IndexByte(label, '('); i >= 0 {
		label = label[:i]
	}
	return label
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
