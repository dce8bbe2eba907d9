package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ned"
	"ned/internal/serve"
)

// The PGP analog at scale 1 (2670 nodes), fixed across seeds: its hubs
// make per-query cost vary by three orders of magnitude, and a graph per
// seed would turn every metric's spread into a spread across graphs.
func pgpGraph() (*ned.Graph, error) {
	return ned.GenerateDataset(ned.DatasetPGP, ned.DatasetOptions{Scale: 1, Seed: datasetSeed})
}

// buildPGP generates the PGP analog and builds and materializes a corpus
// over every node with the given options.
func buildPGP(opts ...ned.CorpusOption) (*ned.Graph, *ned.Corpus, error) {
	g, err := pgpGraph()
	if err != nil {
		return nil, nil, err
	}
	c, err := ned.NewCorpus(g, kDepth, opts...)
	if err != nil {
		return nil, nil, err
	}
	c.Rebuild()
	return g, c, nil
}

func pgpTenant(c *ned.Corpus) *serve.Tenant {
	return &serve.Tenant{Name: tenantName, Corpus: c, K: kDepth, HasGraph: true}
}

// Sampling of answers for the oracle: every sampleEvery-th op, at most
// maxSamples per run.
const (
	sampleEvery = 5
	maxSamples  = 48
	replayN     = 100 // fixed query prefix replayed for per-layer counts
	queryStrata = 32  // size strata of the query sequences
)

// runKNNHTTP: one client, closed loop, HTTP KNN(l=5) over a seeded node
// sequence against an in-memory tenant on the default backend with the
// default serve options.
func runKNNHTTP(o opts, rep *report) error {
	var g *ned.Graph
	var c *ned.Corpus
	var srv *serve.Server
	var secs []float64
	for range setups(o) {
		g, c, srv = nil, nil, nil
		runtime.GC()
		start := time.Now()
		var err error
		if g, c, err = buildPGP(); err != nil {
			return err
		}
		srv = serve.New(serve.Options{})
		if err := srv.AddTenant(pgpTenant(c)); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	rep.add("setup_s", pct(secs, 0.5), "s", len(secs))
	rep.add("heap_mb", heapMB(), "MiB", 1)

	seq := stratified(stream(o.seed, streamQueries), signatureSizes(g), queryStrata, 1<<16)
	dur := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
		dur /= 2 // half untraced, half traced: the difference is the tracing overhead
	}
	s := startServer(srv, tr)
	defer s.close()

	lat, answers := knnLoad(s, nil, g, seq, dur, rep)
	if !o.trace {
		rep.addLatency("knn", lat.ms)
		rep.add("knn_qps", float64(len(lat.ms))/lat.wall.Seconds(), "1/s", len(lat.ms))
		rep.add("fail_ratio", ratio(rep.failed, rep.attempted), "ratio", int(rep.attempted))
	} else {
		before := srv.Stats()
		traced, more := knnLoad(s, tr, g, seq, dur, rep)
		answers = append(answers, more...)
		serveLayer(rep, tr, before, srv.Stats(), len(traced.ms))
		rep.layer("trace.overhead_ms", pct(traced.ms, 0.5)-pct(lat.ms, 0.5), "ms", len(traced.ms))
		if err := replayLayers(rep, tr, o.seed, s, c, g, seq[:replayN], nil); err != nil {
			return err
		}
		if err := tr.write(filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", rep.workload, o.seed))); err != nil {
			return err
		}
	}
	newOracle(g).check(rep, "knn-http", answers, knnL)
	return nil
}

// loadResult is what a timed load observed.
type loadResult struct {
	ms   []float64 // latency of every successful op
	wall time.Duration
}

// knnLoad runs the single-client closed loop for dur from the start of
// seq and samples answers for the oracle. Traced, each op is a
// "request" root span over the client's "serve.http" span.
func knnLoad(s *served, tr *tracer, g *ned.Graph, seq []ned.NodeID, dur time.Duration, rep *report) (loadResult, []answer) {
	var res loadResult
	var answers []answer
	var failed int64
	start := time.Now()
	i := 0
	for ; time.Since(start) < dur; i++ {
		v := seq[i%len(seq)]
		root := tr.begin("request", 0, i+1)
		nbs, d, err := s.knn(v, knnL, i+1, root)
		tr.end(root)
		if err != nil {
			failed++
			logFailure(failed, err)
			continue
		}
		res.ms = append(res.ms, msOf(d))
		if i%sampleEvery == 0 && len(answers) < maxSamples {
			answers = append(answers, answer{query: ned.NewSignature(g, v, kDepth), got: nbs})
		}
	}
	res.wall = time.Since(start)
	rep.ops(int64(i), failed)
	return res, answers
}

// logFailure prints the first few failed ops of a run.
func logFailure(n int64, err error) {
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
	}
}

// serveLayer reports the serve counters' deltas over a traced load.
// knns is the number of KNN requests the load completed.
func serveLayer(rep *report, tr *tracer, before, after serve.ServerStats, knns int) {
	batches := after.CoalesceBatches - before.CoalesceBatches
	coalesced := after.CoalescedRequests - before.CoalescedRequests
	transport := tr.selfTimes("serve.http")
	rep.layer("serve.coalesced_ratio", ratio(coalesced, int64(knns)), "ratio", knns)
	rep.layer("serve.coalesce_batch_mean", ratio(coalesced, batches), "count", int(batches))
	rep.layer("serve.overloads", float64(after.Overloads-before.Overloads), "count", knns)
	rep.layer("serve.transport_ms_p50", pct(transport, 0.5), "ms", len(transport))
}

// replayLayers sends the fixed prefix over HTTP and, right after each,
// straight to Corpus.KNN: the difference is the serve layer's own time.
// A second, direct-only pass over the same prefix from reset counters
// gives the engine's exact per-query counts and allocations. Signature
// extraction is timed over the prefix plus the mutated nodes.
func replayLayers(rep *report, tr *tracer, seed int64, s *served, c *ned.Corpus, g *ned.Graph, prefix, mutated []ned.NodeID) error {
	ctx := context.Background()
	var self, direct []float64
	base := 1 << 30 // request ids of the replay, apart from the load's
	for i, v := range prefix {
		req := base + i
		root := tr.begin("request", 0, req)
		_, httpD, err := s.knn(v, knnL, req, root)
		if err != nil {
			return fmt.Errorf("replay over HTTP: %w", err)
		}
		id := tr.begin("corpus.KNN", root, req)
		if _, err := c.KNN(ctx, v, knnL); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		d := tr.end(id)
		tr.end(root)
		direct = append(direct, msOf(d))
		self = append(self, msOf(httpD)-msOf(d))
	}
	rep.layer("serve.self_ms_p50", pct(self, 0.5), "ms", len(self))
	rep.layer("corpus.knn_ms_p50", pct(direct, 0.5), "ms", len(direct))
	rep.layer("corpus.knn_ms_p99", pct(direct, 0.99), "ms", len(direct))

	sigs, extract := extractTimed(tr, g, append(slices.Clip(prefix), mutated...))
	sigs = sigs[:len(prefix)]
	rep.layer("tree.extract_us_p50", pct(extract, 0.5)*1e3, "us", len(extract))
	c.ResetStats()
	var answers [][]ned.Neighbor
	allocs, err := allocsDuring(func() error {
		for _, v := range prefix {
			nbs, err := c.KNN(ctx, v, knnL)
			if err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			answers = append(answers, nbs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.layer("corpus.allocs_per_query", float64(allocs)/float64(len(prefix)), "count", len(prefix))
	engineLayer(rep, c.Stats(), answers)
	cands := nodeSeq(stream(seed, streamCandidates), g.NumNodes(), tedCands)
	tedLayer(rep, tr, sigs, answers, func(v ned.NodeID) ned.Signature { return ned.NewSignature(g, v, kDepth) }, cands)
	return nil
}
