// Command perfbench is the repository's layered benchmark. One run drives
// one named workload through the engine for a fixed time, checks every
// sampled answer against an exhaustive oracle, and prints each metric by
// name, unit and sample count. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// run records spans around the calls into each layer and reports the
// per-layer set instead (see layers.go).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload knn-http --seed 1 --seconds 15 --trace 0
//
// Workloads: knn-http, mixed-durable, deanon-batch (see workloads.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // scratch directory (durable data, span dumps)
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured load time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.StringVar(&o.work, "work", ".bench_build", "scratch directory for durable data and span dumps")
	flag.Parse()
	o.trace = trace != 0

	w, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatalf("creating scratch directory: %v", err)
	}
	printMachine()
	rep := newReport(o.workload)
	if err := w.run(o, rep); err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	rep.print(os.Stdout)
	line, err := rep.result(o.trace)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// printMachine records what the numbers were measured on.
func printMachine() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("machine cpu=%q nproc=%d gomaxprocs=%d go=%s time=%s\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), time.Now().UTC().Format(time.RFC3339))
}

// result builds the final JSON line.
func (r *report) result(trace bool) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if r.attempted < 1 {
		return "", fmt.Errorf("no operation was attempted")
	}
	metrics := map[string]val{}
	for _, name := range gatedNames(trace) {
		m, ok := r.lookup(name, trace)
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		metrics[name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	return string(b), err
}
