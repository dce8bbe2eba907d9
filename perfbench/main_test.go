package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps ../BENCHMARK.json, MANIFEST.json and
// the metric tables in this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if got := workloads[w.Name].why; got != w.Why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in code", w.Name, w.Why, got)
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in code", names, workloadNames())
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
		for w, src := range gatedE2E[m.Name] {
			if _, ok := workloads[w]; !ok || src == "" {
				t.Errorf("%s: bad source %q for workload %q", m.Name, src, w)
			}
		}
		if len(gatedE2E[m.Name]) != len(workloads) {
			t.Errorf("%s is not reported by every workload", m.Name)
		}
	}
	slices.Sort(e2e)
	if !slices.Equal(e2e, gatedNames(false)) {
		t.Errorf("end_to_end %v in BENCHMARK.json, %v in code", e2e, gatedNames(false))
	}
	raw, err = os.ReadFile("MANIFEST.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Gated map[string]json.RawMessage `json:"end_to_end_gated"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	for name, want := range gatedE2E {
		var got map[string]string
		if err := json.Unmarshal(manifest.Gated[name], &got); err != nil || !maps.Equal(got, want) {
			t.Errorf("MANIFEST.json end_to_end_gated.%s = %s, code has %v", name, manifest.Gated[name], want)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if l := layerMetrics[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per_layer[%d] = %+v in BENCHMARK.json, %+v in code", i, m, l)
		}
	}
}

// TestCountFingerprint runs each single-client workload traced twice
// with one seed: the engine's counts over the fixed replay must repeat
// exactly.
func TestCountFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the PGP and DBLP corpora four times")
	}
	for _, name := range []string{"knn-http", "deanon-batch"} {
		var runs [2]map[string]float64
		for i := range runs {
			rep := newReport(name)
			o := opts{workload: name, seed: 3, seconds: 1, trace: true, work: t.TempDir()}
			if err := workloads[name].run(o, rep); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !rep.correct() {
				t.Fatalf("%s: %d oracle mismatches in %d checks", name, rep.mismatches, rep.checked)
			}
			runs[i] = map[string]float64{}
			for _, m := range rep.layers {
				if strings.HasPrefix(m.name, "ned.") || strings.HasPrefix(m.name, "corpus.plan_") || strings.HasPrefix(m.name, "ted.outcome_") {
					runs[i][m.name] = m.value
				}
			}
		}
		if len(runs[0]) < 10 {
			t.Fatalf("%s: only %d counts reported", name, len(runs[0]))
		}
		for k, v := range runs[0] {
			if runs[1][k] != v {
				t.Errorf("%s: %s = %v then %v", name, k, v, runs[1][k])
			}
		}
	}
}

func TestCovered(t *testing.T) {
	p := span{Start: 0, End: 100}
	for _, tc := range []struct {
		kids []span
		want int64
	}{
		{nil, 0},
		{[]span{{Start: 10, End: 20}, {Start: 30, End: 50}}, 30},
		{[]span{{Start: 10, End: 40}, {Start: 30, End: 50}}, 40},    // overlapping
		{[]span{{Start: 90, End: 150}, {Start: 200, End: 300}}, 10}, // clipped, outside
	} {
		if got := covered(p, tc.kids); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.kids, got, tc.want)
		}
	}
}
