package main

import (
	"runtime"
	"slices"
	"time"

	"ned"
	"ned/internal/ted"
)

// layerSpec is one per-layer metric of BENCHMARK.json.
type layerSpec struct {
	name, unit, better string
}

// layerMetrics are the per-layer metrics a traced run reports, named
// <layer>.<metric> after the repository's modules: serve
// (internal/serve), corpus (the root package), ned (internal/ned), ted
// (internal/ted, with internal/hungarian inside), tree (internal/tree)
// and segment (internal/segment). A workload that does not exercise a
// layer reports its metrics as 0.
var layerMetrics = []layerSpec{
	{"serve.self_ms_p50", "ms", "lower"},
	{"serve.transport_ms_p50", "ms", "lower"},
	{"serve.coalesced_ratio", "ratio", "higher"},
	{"serve.coalesce_batch_mean", "count", "higher"},
	{"serve.overloads", "count", "lower"},
	{"corpus.knn_ms_p50", "ms", "lower"},
	{"corpus.knn_ms_p99", "ms", "lower"},
	{"corpus.allocs_per_query", "count", "lower"},
	{"corpus.batch_ms_p50", "ms", "lower"},
	{"corpus.plan_parallel", "count/query", "lower"},
	{"corpus.plan_sequential", "count/query", "lower"},
	{"corpus.plan_single", "count/query", "lower"},
	{"corpus.plan_scans", "count/query", "lower"},
	{"corpus.mutate_ms_p50", "ms", "lower"},
	{"corpus.mutate_ms_p99", "ms", "lower"},
	{"corpus.clone_bytes_per_mut", "bytes", "lower"},
	{"corpus.lock_wait_ms", "ms", "lower"},
	{"corpus.rebuilds", "count", "lower"},
	{"corpus.first_query_ms", "ms", "lower"},
	{"ned.ted_evals_per_query", "count/query", "lower"},
	{"ned.useful_ratio", "ratio", "higher"},
	{"ned.early_exit_ratio", "ratio", "higher"},
	{"ned.size_prunes_per_query", "count/query", "higher"},
	{"ned.padding_prunes_per_query", "count/query", "higher"},
	{"ned.label_prunes_per_query", "count/query", "higher"},
	{"ned.block_candidates_per_query", "count/query", "lower"},
	{"ned.block_size_survivors_per_query", "count/query", "lower"},
	{"ned.block_padding_survivors_per_query", "count/query", "lower"},
	{"ned.block_label_survivors_per_query", "count/query", "lower"},
	{"ned.stale_ratio", "ratio", "lower"},
	{"ted.exact_us_p50", "us", "lower"},
	{"ted.exact_us_p99", "us", "lower"},
	{"ted.abort_us_p50", "us", "lower"},
	{"ted.outcome_exact_share", "ratio", "lower"},
	{"ted.outcome_pruned_share", "ratio", "higher"},
	{"ted.outcome_aborted_share", "ratio", "lower"},
	{"tree.extract_us_p50", "us", "lower"},
	{"segment.commit_ms_p50", "ms", "lower"},
	{"segment.commit_ms_p99", "ms", "lower"},
	{"segment.checkpoint_ms_p50", "ms", "lower"},
	{"segment.checkpoints", "count", "lower"},
	{"segment.bytes_per_mut", "bytes", "lower"},
	{"segment.recover_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// tedCands is how many seeded non-answer candidates the TED* probe
// times per query.
const tedCands = 20

// allocsDuring counts heap allocations made while f runs.
func allocsDuring(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// extractTimed extracts each node's signature (the tree layer) inside a
// "tree.extract" span and returns the signatures and the times in ms.
func extractTimed(tr *tracer, g *ned.Graph, nodes []ned.NodeID) ([]ned.Signature, []float64) {
	sigs := make([]ned.Signature, len(nodes))
	ms := make([]float64, len(nodes))
	for i, v := range nodes {
		id := tr.begin("tree.extract", 0, 0)
		start := time.Now()
		sigs[i] = ned.NewSignature(g, v, kDepth)
		ms[i] = msOf(time.Since(start))
		tr.end(id)
	}
	return sigs, ms
}

// engineLayer reports the engine counters, from reset, of a fixed replay
// that returned answers: exact counts per query for a given seed.
func engineLayer(rep *report, st ned.CorpusStats, answers [][]ned.Neighbor) {
	q := float64(len(answers))
	per := func(name string, v int64) { rep.layer(name, float64(v)/q, "count/query", len(answers)) }
	per("corpus.plan_parallel", st.PlanParallel)
	per("corpus.plan_sequential", st.PlanSequential)
	per("corpus.plan_single", st.PlanSingle)
	per("corpus.plan_scans", st.PlanScans)
	per("ned.ted_evals_per_query", st.DistanceCalls)
	per("ned.size_prunes_per_query", st.SizePrunes)
	per("ned.padding_prunes_per_query", st.PaddingPrunes)
	per("ned.label_prunes_per_query", st.LabelPrunes)
	per("ned.block_candidates_per_query", st.BlockCandidates)
	per("ned.block_size_survivors_per_query", st.BlockSizeSurvivors)
	per("ned.block_padding_survivors_per_query", st.BlockPaddingSurvivors)
	per("ned.block_label_survivors_per_query", st.BlockLabelSurvivors)
	var returned int64
	for _, a := range answers {
		returned += int64(len(a))
	}
	rep.layer("ned.useful_ratio", ratio(returned, st.DistanceCalls), "ratio", int(st.DistanceCalls))
	rep.layer("ned.early_exit_ratio", ratio(st.EarlyExits, st.DistanceCalls), "ratio", int(st.DistanceCalls))
}

// tedLayer times ted.Computer.DistanceAtMost, the engine's verify step,
// with the budget the engine verifies under: the l-th best distance. On
// (query, answer) pairs it runs to an exact result; on the seeded
// non-answer candidates it may be pruned by the padding bound or aborted
// mid-matching.
func tedLayer(rep *report, tr *tracer, queries []ned.Signature, answers [][]ned.Neighbor, sigOf func(ned.NodeID) ned.Signature, cands []ned.NodeID) {
	comp := ted.NewComputer()
	candSigs := make([]ned.Signature, len(cands))
	for i, v := range cands {
		candSigs[i] = sigOf(v)
	}
	timed := func(q, c ned.Signature, budget int) (float64, ted.Outcome) {
		id := tr.begin("ted.DistanceAtMost", 0, 0)
		start := time.Now()
		_, out := comp.DistanceAtMost(q.Tree, c.Tree, budget)
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		tr.end(id)
		return us, out
	}
	var exact, aborted []float64
	outcomes := map[ted.Outcome]int64{}
	var probes int64
	for i, q := range queries {
		ans := answers[i]
		if len(ans) == 0 {
			continue
		}
		budget := ans[len(ans)-1].Dist
		for _, a := range ans {
			us, _ := timed(q, sigOf(a.Node), budget)
			exact = append(exact, us)
		}
		for j, c := range candSigs {
			if slices.ContainsFunc(ans, func(n ned.Neighbor) bool { return n.Node == cands[j] }) {
				continue
			}
			us, out := timed(q, c, budget)
			outcomes[out]++
			probes++
			if out == ted.OutcomeAborted {
				aborted = append(aborted, us)
			}
		}
	}
	rep.layer("ted.exact_us_p50", pct(exact, 0.5), "us", len(exact))
	rep.layer("ted.exact_us_p99", pct(exact, 0.99), "us", len(exact))
	abort := 0.0
	if len(aborted) > 0 {
		abort = pct(aborted, 0.5)
	}
	rep.layer("ted.abort_us_p50", abort, "us", len(aborted))
	rep.layer("ted.outcome_exact_share", ratio(outcomes[ted.OutcomeExact], probes), "ratio", int(probes))
	rep.layer("ted.outcome_pruned_share", ratio(outcomes[ted.OutcomePruned], probes), "ratio", int(probes))
	rep.layer("ted.outcome_aborted_share", ratio(outcomes[ted.OutcomeAborted], probes), "ratio", int(probes))
}
