package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"

	"ned"
)

// workload is one named input set and the load that drives it.
type workload struct {
	why string
	run func(o opts, rep *report) error
}

var workloads = map[string]workload{
	"knn-http": {
		why: "light-load read path through every layer: single-client HTTP KNN on the default backend and serve options, no writes",
		run: runKNNHTTP,
	},
	"mixed-durable": {
		why: "writes beside reads on a durable pruned-backend tenant: WAL fsync, epoch publish, checkpoints, coalescing of 2 clients, restart recovery",
		run: runMixedDurable,
	},
	"deanon-batch": {
		why: "the paper's de-anonymization task: TED*-heavy BatchKNN over DBLP with no HTTP and no durability",
		run: runDeanonBatch,
	},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// gatedE2E maps each end-to-end metric named in BENCHMARK.json to the
// workload metric it reports: every workload reports every gated name,
// each from its own primary operation.
var gatedE2E = map[string]map[string]string{
	"setup_s": {"knn-http": "setup_s", "mixed-durable": "setup_s", "deanon-batch": "setup_s"},
	"heap_mb": {"knn-http": "heap_mb", "mixed-durable": "heap_mb", "deanon-batch": "heap_mb"},
	"p50_ms":  {"knn-http": "knn_p50_ms", "mixed-durable": "knn_p50_ms", "deanon-batch": "batch_p50_ms"},
}

// gatedNames lists the BENCHMARK.json metric names a run reports.
func gatedNames(trace bool) []string {
	var names []string
	if trace {
		for _, l := range layerMetrics {
			names = append(names, l.name)
		}
		return names
	}
	for n := range gatedE2E {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Shared workload constants.
const (
	datasetSeed = 1 // the repository's canonical dataset seed (nedbench -seed default)
	kDepth      = 3
	knnL        = 5
	setupReps   = 3 // set-ups per untraced run; setup_s is their median
)

// setups returns how many times a run sets up: several untraced, so
// setup_s is a median, and once traced.
func setups(o opts) int {
	if o.trace {
		return 1
	}
	return setupReps
}

// heapMB is the live heap after forced collections: the second one
// empties the sync.Pool caches the first only moves aside.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Input streams: each input draws from its own stream of the workload
// seed, so no two inputs share a random sequence.
const (
	streamQueries = iota + 1
	streamProbe
	streamAnonymize
	streamOrder
	streamCandidates
	streamClients // + client index, so it comes last
)

// stream is the seed of one input stream.
func stream(seed int64, id int) int64 { return seed*1_000_003 + int64(id) }

// stratified is a seeded sequence of nodes drawn in rounds: the nodes
// are split by size into `strata` groups of equal count, and each round
// takes one node, uniformly at random, from every group in shuffled
// order. Every node stays equally likely, but every prefix of whole
// rounds holds the same mix of small and large queries, so a run's
// figures do not hinge on how many large ones its seed happened to draw.
func stratified(seed int64, sizes []int, strata, length int) []ned.NodeID {
	byCost := make([]ned.NodeID, len(sizes))
	for i := range byCost {
		byCost[i] = ned.NodeID(i)
	}
	slices.SortStableFunc(byCost, func(a, b ned.NodeID) int { return sizes[a] - sizes[b] })
	rng := rand.New(rand.NewSource(seed))
	out := make([]ned.NodeID, 0, length)
	for len(out) < length {
		for _, s := range rng.Perm(strata) {
			lo, hi := s*len(byCost)/strata, (s+1)*len(byCost)/strata
			out = append(out, byCost[lo+rng.Intn(hi-lo)])
		}
	}
	return out[:length]
}

// nodeSeq is a seeded sequence of nodes, uniform at random.
func nodeSeq(seed int64, n, length int) []ned.NodeID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ned.NodeID, length)
	for i := range out {
		out[i] = ned.NodeID(rng.Intn(n))
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
