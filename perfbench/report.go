package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metric is one reported number. n is the count of samples behind it
// (0 for a single measurement).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// report collects a run's metrics, its op accounting and its oracle
// verdict.
type report struct {
	workload   string
	e2e        []metric
	layers     []metric
	notes      []string
	attempted  int64
	failed     int64
	checked    int
	mismatches int
}

func newReport(workload string) *report { return &report{workload: workload} }

func (r *report) add(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *report) layer(name string, v float64, unit string, n int) {
	r.layers = append(r.layers, metric{name, v, unit, n})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// addLatency reports the median of ms under name+"_p50_ms" and the 90th
// and 99th percentiles (name+"_p90_ms", name+"_p99_ms") when at least ten
// samples lie beyond them.
func (r *report) addLatency(name string, ms []float64) {
	if len(ms) == 0 {
		return
	}
	r.add(name+"_p50_ms", pct(ms, 0.50), "ms", len(ms))
	if len(ms) >= 100 {
		r.add(name+"_p90_ms", pct(ms, 0.90), "ms", len(ms))
	}
	if len(ms) >= 1000 {
		r.add(name+"_p99_ms", pct(ms, 0.99), "ms", len(ms))
	} else {
		r.note("%s_p99_ms omitted: %d samples leave fewer than 10 beyond p99", name, len(ms))
	}
}

// mismatch records a wrong answer; the run then fails.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches++
	fmt.Fprintf(os.Stderr, "perfbench: MISMATCH "+format+"\n", args...)
}

func (r *report) correct() bool { return r.mismatches == 0 && r.checked > 0 }

// ops accounts one batch of attempted operations.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *report) print(w io.Writer) {
	for _, m := range r.e2e {
		fmt.Fprintf(w, "e2e   %-14s %-24s %14.4f %-6s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
	}
	for _, m := range r.layers {
		fmt.Fprintf(w, "layer %-14s %-36s %14.4f %-12s n=%d\n", r.workload, m.name, m.value, m.unit, m.n)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note  %-14s %s\n", r.workload, n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "ops   %-14s attempted=%d failed=%d fail_ratio=%.6f\n", r.workload, r.attempted, r.failed, ratio)
	fmt.Fprintf(w, "check %-14s oracle_checks=%d mismatches=%d\n", r.workload, r.checked, r.mismatches)
}

func (r *report) find(list []metric, name string) (metric, bool) {
	i := slices.IndexFunc(list, func(m metric) bool { return m.name == name })
	if i < 0 {
		return metric{}, false
	}
	return list[i], true
}

// lookup resolves a BENCHMARK.json metric name. End-to-end names are
// aliases of the workload's own metric (gatedE2E); a per-layer metric of
// a layer the workload does not exercise reads 0.
func (r *report) lookup(name string, trace bool) (metric, bool) {
	if !trace {
		m, ok := r.find(r.e2e, gatedE2E[name][r.workload])
		m.name = name
		return m, ok
	}
	if m, ok := r.find(r.layers, name); ok {
		return m, true
	}
	for _, l := range layerMetrics {
		if l.name == name {
			return metric{name: name, unit: l.unit}, true
		}
	}
	return metric{}, false
}

// pct is the nearest-rank p-quantile of xs (xs is not modified).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
