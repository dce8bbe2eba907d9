package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ned"
)

const (
	deanonBatch   = 8    // query nodes per BatchKNN call
	deanonPerturb = 0.05 // share of edges the anonymizer removes and adds
	deanonSamples = 8    // oracle-checked queries per run
	deanonReplay  = 8    // batches replayed for the per-layer counts
)

// dblpGraph is the DBLP analog at scale 1 (8000 nodes, average degree
// 6), fixed across seeds like the PGP analog.
func dblpGraph() (*ned.Graph, error) {
	return ned.GenerateDataset(ned.DatasetDBLP, ned.DatasetOptions{Scale: 1, Seed: datasetSeed})
}

// runDeanonBatch: the de-anonymization task of §13 through the library.
// A seeded 5%-perturbed anonymized copy supplies query nodes in seeded
// order; each call extracts a batch's signatures from the anonymized
// graph and asks BatchKNN(l=5) against the original's pruned corpus.
func runDeanonBatch(o opts, rep *report) error {
	var g *ned.Graph
	var c *ned.Corpus
	var secs []float64
	for range setups(o) {
		g, c = nil, nil
		runtime.GC()
		start := time.Now()
		var err error
		if g, err = dblpGraph(); err != nil {
			return err
		}
		if c, err = ned.NewCorpus(g, kDepth, ned.WithBackend(ned.BackendPrunedLinear)); err != nil {
			return err
		}
		c.Rebuild()
		secs = append(secs, time.Since(start).Seconds())
	}
	rep.add("setup_s", pct(secs, 0.5), "s", len(secs))
	rep.add("heap_mb", heapMB(), "MiB", 1)

	an := ned.AnonymizePerturb(g, deanonPerturb, stream(o.seed, streamAnonymize))
	order := stratified(stream(o.seed, streamOrder), signatureSizes(an.Graph), queryStrata, 1<<14)
	batch := func(i int) []ned.NodeID {
		i %= len(order) / deanonBatch
		return order[i*deanonBatch : (i+1)*deanonBatch]
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
		dur /= 2
	}
	load, answers := deanonLoad(c, nil, an, batch, dur, rep)
	if !o.trace {
		rep.add("batch_qps", float64(load.answered)/load.wall.Seconds(), "1/s", load.answered)
		rep.addLatency("batch", load.call)
		rep.add("fail_ratio", ratio(rep.failed, rep.attempted), "ratio", int(rep.attempted))
		rep.add("deanon_top5_hit_ratio", ratio(int64(load.hits), int64(load.answered)), "ratio", load.answered)
	} else {
		traced, _ := deanonLoad(c, tr, an, batch, dur, rep)
		rep.layer("trace.overhead_ms", pct(traced.call, 0.5)-pct(load.call, 0.5), "ms", len(traced.call))
		rep.layer("corpus.batch_ms_p50", pct(traced.call, 0.5), "ms", len(traced.call))
		rep.layer("tree.extract_us_p50", pct(traced.extract, 0.5)*1e3, "us", len(traced.extract))
		if err := deanonReplayLayers(rep, tr, o.seed, c, g, an, batch); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", rep.workload, o.seed))); err != nil {
			return err
		}
	}
	newOracle(g).check(rep, "deanon-batch", answers, knnL)
	return nil
}

// deanonResult is what a timed batch load observed.
type deanonResult struct {
	call     []float64 // BatchKNN call latency, ms
	extract  []float64 // per-query signature extraction, ms
	answered int
	hits     int // queries whose true identity is among the answers
	wall     time.Duration
}

// deanonLoad runs BatchKNN calls back to back for dur. Traced, each call
// is a "request" span over one "tree.extract" span per query and the
// "corpus.BatchKNN" span.
func deanonLoad(c *ned.Corpus, tr *tracer, an ned.AnonymizedGraph, batch func(int) []ned.NodeID, dur time.Duration, rep *report) (deanonResult, []answer) {
	var res deanonResult
	var answers []answer
	var failed int64
	ctx := context.Background()
	start := time.Now()
	i := 0
	for ; time.Since(start) < dur; i++ {
		nodes := batch(i)
		root := tr.begin("request", 0, i+1)
		sigs := make([]ned.Signature, len(nodes))
		for j, v := range nodes {
			id := tr.begin("tree.extract", root, i+1)
			t0 := time.Now()
			sigs[j] = ned.NewSignature(an.Graph, v, kDepth)
			res.extract = append(res.extract, msOf(time.Since(t0)))
			tr.end(id)
		}
		id := tr.begin("corpus.BatchKNN", root, i+1)
		t0 := time.Now()
		out, err := c.BatchKNN(ctx, sigs, knnL)
		d := time.Since(t0)
		tr.end(id)
		tr.end(root)
		if err != nil {
			failed++
			logFailure(failed, err)
			continue
		}
		res.call = append(res.call, msOf(d))
		res.answered += len(nodes)
		for j, v := range nodes {
			truth := an.Identity[v]
			if slices.ContainsFunc(out[j], func(n ned.Neighbor) bool { return n.Node == truth }) {
				res.hits++
			}
		}
		if len(answers) < deanonSamples {
			answers = append(answers, answer{query: sigs[0], got: out[0]})
		}
	}
	res.wall = time.Since(start)
	rep.ops(int64(i), failed)
	return res, answers
}

// deanonReplayLayers replays the first batches from reset counters for
// the engine's exact per-query counts and allocations, then probes the
// TED* verify step on the same queries.
func deanonReplayLayers(rep *report, tr *tracer, seed int64, c *ned.Corpus, g *ned.Graph, an ned.AnonymizedGraph, batch func(int) []ned.NodeID) error {
	var sigs []ned.Signature
	for i := range deanonReplay {
		for _, v := range batch(i) {
			sigs = append(sigs, ned.NewSignature(an.Graph, v, kDepth))
		}
	}
	ctx := context.Background()
	c.ResetStats()
	var answers [][]ned.Neighbor
	allocs, err := allocsDuring(func() error {
		for i := 0; i < len(sigs); i += deanonBatch {
			out, err := c.BatchKNN(ctx, sigs[i:i+deanonBatch], knnL)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			answers = append(answers, out...)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.layer("corpus.allocs_per_query", float64(allocs)/float64(len(sigs)), "count", len(sigs))
	engineLayer(rep, c.Stats(), answers)
	cands := nodeSeq(stream(seed, streamCandidates), g.NumNodes(), tedCands)
	tedLayer(rep, tr, sigs, answers, func(v ned.NodeID) ned.Signature { return ned.NewSignature(g, v, kDepth) }, cands)
	return nil
}
