package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"ned"
	"ned/internal/segment"
	"ned/internal/serve"
)

const (
	mixedClients    = 2
	mutateOneIn     = 8  // one op in 8 is a remove+insert pair on one node
	checkpointEvery = 64 // WAL records per checkpoint: several per run
	reopens         = 3  // restart_ms is the median of this many reopens
	probeQueries    = 16 // answers compared before close and after each reopen
)

// mixedBackend serves the durable tenant. Under the default VP backend a
// reopen after WAL replay rebuilds the index inside its first query
// (7.7 s per reopen measured), and hub queries of up to 8 s leave about
// 45 mutations and no checkpoint in a 10 s run, so the write path would
// barely be measured.
const mixedBackend = ned.BackendPrunedLinear

// mixedRead is one sampled KNN answer with the window it ran in.
type mixedRead struct {
	v          ned.NodeID
	start, end time.Duration
	got        []ned.Neighbor
}

// absence is the window in which a mutated node may be missing from the
// index: from its remove being sent to its insert being acknowledged
// (open-ended if the insert failed).
type absence struct {
	v        ned.NodeID
	from, to time.Duration
}

// clientLog is what one client of the mixed load observed.
type clientLog struct {
	knn, mut          []float64
	attempted, failed int64
	reads             []mixedRead
	windows           []absence
	lastAck           map[ned.NodeID]string // last acknowledged mutation per node
	pairs             []ned.NodeID          // mutated nodes in order
}

// runMixedDurable: two clients in a closed loop against a durable tenant
// (FsyncAlways, the nedserve default). One op in eight is a
// remove+insert pair on one node, the rest are KNN(l=5). Afterwards
// fresh servers recover the directory with BootDurable.
func runMixedDurable(o opts, rep *report) error {
	root, err := os.MkdirTemp(o.work, "mixed-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var g *ned.Graph
	var c *ned.Corpus
	var srv *serve.Server
	var dir string
	var secs []float64
	for i := range setups(o) {
		if c != nil { // retire the previous set-up, outside the timed window
			if err := c.CloseDurable(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		g, c, srv = nil, nil, nil
		runtime.GC()
		dir = filepath.Join(root, fmt.Sprintf("data%d", i))
		start := time.Now()
		if g, c, err = buildPGP(ned.WithBackend(mixedBackend)); err != nil {
			return err
		}
		srv = serve.New(serve.Options{DataDir: dir, Fsync: ned.FsyncAlways, CheckpointEvery: checkpointEvery})
		if err := srv.AddTenant(pgpTenant(c)); err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	tenantDir := filepath.Join(dir, tenantName)
	// The traced run replays the load's mutations on library replicas
	// loaded from this pristine snapshot.
	var snap bytes.Buffer
	if o.trace {
		if err := c.SnapshotSegment(&snap); err != nil {
			return err
		}
	}
	closed := false
	defer func() {
		if !closed {
			_ = c.CloseDurable() // error path only; the success path checks it
		}
	}()
	rep.add("setup_s", pct(secs, 0.5), "s", len(secs))
	rep.add("heap_mb", heapMB(), "MiB", 1)

	sizes := signatureSizes(g)
	dur := time.Duration(o.seconds * float64(time.Second))
	var tr *tracer
	if o.trace {
		tr = newTracer()
		dur /= 2
	}
	s := startServer(srv, tr)
	ckpt0, err := latestCheckpoint(tenantDir)
	if err != nil {
		s.close()
		return err
	}
	st0 := c.Stats()
	logs, wall := mixedLoad(s, nil, sizes, o.seed, dur)
	st1 := c.Stats()
	if o.trace {
		before := srv.Stats()
		traced, _ := mixedLoad(s, tr, sizes, o.seed, dur)
		after := srv.Stats()
		st1 = c.Stats() // before the replay resets the serving counters
		var knns int
		for _, l := range traced {
			knns += len(l.knn)
		}
		serveLayer(rep, tr, before, after, knns)
		rep.layer("trace.overhead_ms", pct(knnOf(traced), 0.5)-pct(knnOf(logs), 0.5), "ms", knns)
		logs = append(logs, traced...)
		prefix := clientQueries(o.seed, 0, sizes)[:replayN]
		if err := replayLayers(rep, tr, o.seed, s, c, g, prefix, replayPairs(logs)); err != nil {
			s.close()
			return err
		}
	}
	s.close()
	ckpt1, err := latestCheckpoint(tenantDir)
	if err != nil {
		return err
	}

	var reads, mutated int
	var knnMS, mutMS []float64
	for _, l := range logs {
		rep.ops(l.attempted, l.failed)
		knnMS = append(knnMS, l.knn...)
		mutMS = append(mutMS, l.mut...)
		reads += len(l.knn)
		mutated += len(l.mut)
	}
	if !o.trace {
		rep.addLatency("knn", knnMS)
		rep.add("ops_per_s", float64(reads+mutated)/wall.Seconds(), "1/s", reads+mutated)
		rep.addLatency("mut", mutMS)
		rep.add("checkpoints", float64(ckpt1-ckpt0), "count", mutated)
	} else {
		rep.layer("corpus.lock_wait_ms", float64(sum(st1.ShardLockWaitNS)-sum(st0.ShardLockWaitNS))/1e6, "ms", mutated)
		rep.layer("corpus.rebuilds", float64(st1.Rebuilds-st0.Rebuilds), "count", mutated)
		rep.layer("ned.stale_ratio", st1.StaleRatio, "ratio", 1)
	}

	// Correctness: sampled reads against the oracle, allowing for the
	// nodes a concurrent pair may have had out of the index.
	orc := newOracle(g)
	orc.check(rep, "mixed-durable read", concurrentAnswers(logs, g), knnL)
	present, absent := expectedMembership(logs)
	probe := nodeSeq(stream(o.seed, streamProbe), g.NumNodes(), probeQueries)
	want, err := knnAll(c, probe)
	if err != nil {
		return err
	}
	var probeAnswers []answer
	for i, v := range probe {
		probeAnswers = append(probeAnswers, answer{query: ned.NewSignature(g, v, kDepth), got: want[i], maybeAbsent: absent})
	}
	orc.check(rep, "mixed-durable before close", probeAnswers, knnL)

	// Close without a drain checkpoint, as a crash would: recovery then
	// replays the WAL tail onto the last checkpoint.
	closed = true
	if err := c.CloseDurable(); err != nil {
		return err
	}
	if o.trace {
		return mixedLayers(rep, tr, o, g, root, tenantDir, logs, snap.Bytes(), probe[0], want[0])
	}
	var restarts []float64
	for r := range reopens {
		ms, err := reopen(rep, filepath.Join(root, fmt.Sprintf("reopen%d", r)), tenantDir, g, probe, want, present, absent)
		if err != nil {
			return err
		}
		restarts = append(restarts, ms)
	}
	rep.add("restart_ms", pct(restarts, 0.5), "ms", len(restarts))
	rep.add("fail_ratio", ratio(rep.failed, rep.attempted), "ratio", int(rep.attempted))
	return nil
}

// mixedLoad runs the two clients for dur and returns their logs.
func mixedLoad(s *served, tr *tracer, sizes []int, seed int64, dur time.Duration) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, mixedClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range logs {
		logs[ci] = &clientLog{lastAck: map[ned.NodeID]string{}}
		wg.Add(1)
		go func(ci int, l *clientLog) {
			defer wg.Done()
			mixedClient(s, tr, l, ci, sizes, seed, start, dur)
		}(ci, logs[ci])
	}
	wg.Wait()
	return logs, time.Since(start)
}

// mixedClient is one closed-loop client. Client ci mutates only nodes
// congruent to ci mod mixedClients, so the two never race on one node.
// Its KNN nodes follow its own stratified sequence.
func mixedClient(s *served, tr *tracer, l *clientLog, ci int, sizes []int, seed int64, start time.Time, dur time.Duration) {
	rng := rand.New(rand.NewSource(stream(stream(seed, streamClients+ci), 1)))
	seq := clientQueries(seed, ci, sizes)
	n := len(sizes)
	req := ci << 24 // request ids, apart per client
	op := func(endpoint string, v ned.NodeID) bool {
		req++
		root := tr.begin("request", 0, req)
		defer tr.end(root)
		l.attempted++
		var d time.Duration
		var err error
		var nbs []ned.Neighbor
		t0 := time.Since(start)
		if endpoint == "knn" {
			nbs, d, err = s.knn(v, knnL, req, root)
		} else {
			d, err = s.mutate(endpoint, v, req, root)
		}
		if err != nil {
			l.failed++
			logFailure(l.failed, err)
			return false
		}
		if endpoint == "knn" {
			l.knn = append(l.knn, msOf(d))
			if len(l.knn)%sampleEvery == 1 && len(l.reads) < maxSamples/mixedClients {
				l.reads = append(l.reads, mixedRead{v, t0, time.Since(start), nbs})
			}
		} else {
			l.mut = append(l.mut, msOf(d))
			l.lastAck[v] = endpoint
		}
		return true
	}
	for i := 0; time.Since(start) < dur; {
		if rng.Intn(mutateOneIn) != 0 {
			op("knn", seq[i%len(seq)])
			i++
			continue
		}
		v := ned.NodeID(mixedClients*rng.Intn(n/mixedClients) + ci)
		w := absence{v: v, from: time.Since(start), to: math.MaxInt64}
		op("remove", v)
		if op("insert", v) {
			w.to = time.Since(start)
		}
		l.windows = append(l.windows, w)
		l.pairs = append(l.pairs, v)
	}
}

// clientQueries is client ci's KNN node sequence.
func clientQueries(seed int64, ci int, sizes []int) []ned.NodeID {
	return stratified(stream(stream(seed, streamClients+ci), 2), sizes, queryStrata, 1<<16)
}

// concurrentAnswers pairs every sampled read with the nodes whose
// absence window overlapped it. Each load phase is mixedClients logs
// sharing one clock.
func concurrentAnswers(logs []*clientLog, g *ned.Graph) []answer {
	var out []answer
	for p := 0; p < len(logs); p += mixedClients {
		phase := logs[p : p+mixedClients]
		var windows []absence
		for _, l := range phase {
			windows = append(windows, l.windows...)
		}
		for _, l := range phase {
			for _, r := range l.reads {
				var maybe []ned.NodeID
				for _, w := range windows {
					if w.from < r.end && w.to > r.start && !slices.Contains(maybe, w.v) {
						maybe = append(maybe, w.v)
					}
				}
				out = append(out, answer{query: ned.NewSignature(g, r.v, kDepth), got: r.got, maybeAbsent: maybe})
			}
		}
	}
	return out
}

// expectedMembership splits the mutated nodes by their last acknowledged
// mutation; later logs are later in time.
func expectedMembership(logs []*clientLog) (present, absent []ned.NodeID) {
	last := map[ned.NodeID]string{}
	for _, l := range logs {
		for v, op := range l.lastAck {
			last[v] = op
		}
	}
	for v, op := range last {
		if op == "insert" {
			present = append(present, v)
		} else {
			absent = append(absent, v)
		}
	}
	slices.Sort(present)
	slices.Sort(absent)
	return present, absent
}

// reopen copies the closed tenant directory, boots a fresh durable
// server on it, and times BootDurable to the first answered HTTP KNN.
// It then checks that the recovered corpus holds every acknowledged
// mutation and answers the probe queries as before the close.
func reopen(rep *report, root, tenantDir string, g *ned.Graph, probe []ned.NodeID, want [][]ned.Neighbor, present, absent []ned.NodeID) (float64, error) {
	if err := copyDir(tenantDir, filepath.Join(root, tenantName)); err != nil {
		return 0, err
	}
	defer os.RemoveAll(root)
	start := time.Now()
	srv := serve.New(serve.Options{DataDir: root, Fsync: ned.FsyncAlways, CheckpointEvery: checkpointEvery})
	if _, err := srv.BootDurable(); err != nil {
		return 0, err
	}
	t, err := srv.Registry().Get(tenantName)
	if err != nil {
		return 0, err
	}
	s := startServer(srv, nil)
	first, _, err := s.knn(probe[0], knnL, 0, 0)
	restart := msOf(time.Since(start))
	s.close()
	if err == nil {
		err = checkReopened(rep, t.Corpus, g, probe, first, want, present, absent)
	}
	if cerr := t.Corpus.CloseDurable(); err == nil {
		err = cerr
	}
	return restart, err
}

// checkReopened compares a recovered corpus with the one that was
// closed: the probe answers (the first as served over HTTP) and the
// membership of every mutated node.
func checkReopened(rep *report, c *ned.Corpus, g *ned.Graph, probe []ned.NodeID, first []ned.Neighbor, want [][]ned.Neighbor, present, absent []ned.NodeID) error {
	got, err := knnAll(c, probe)
	if err != nil {
		return err
	}
	got[0] = first
	rep.checked++
	if err := sameAnswers(got, want); err != nil {
		rep.mismatch("mixed-durable after reopen: %v", err)
	}
	return checkMembership(rep, c, g, present, absent)
}

// checkMembership verifies that each node whose last acknowledged
// mutation was an insert is indexed and each removed one is not: a node
// is indexed exactly when a radius-0 Range of its own signature finds it.
func checkMembership(rep *report, c *ned.Corpus, g *ned.Graph, present, absent []ned.NodeID) error {
	ctx := context.Background()
	if st := c.Stats(); st.Nodes != g.NumNodes()-len(absent) {
		rep.mismatch("mixed-durable after reopen: %d nodes indexed, want %d", st.Nodes, g.NumNodes()-len(absent))
	}
	for _, set := range []struct {
		nodes []ned.NodeID
		want  bool
	}{{present, true}, {absent, false}} {
		for _, v := range set.nodes {
			nbs, err := c.Range(ctx, ned.NewSignature(g, v, kDepth), 0)
			if err != nil {
				return err
			}
			rep.checked++
			if has := slices.ContainsFunc(nbs, func(n ned.Neighbor) bool { return n.Node == v }); has != set.want {
				rep.mismatch("mixed-durable after reopen: node %d indexed=%v, want %v", v, has, set.want)
			}
		}
	}
	return nil
}

// knnAll answers each node directly on the corpus.
func knnAll(c *ned.Corpus, nodes []ned.NodeID) ([][]ned.Neighbor, error) {
	out := make([][]ned.Neighbor, len(nodes))
	for i, v := range nodes {
		nbs, err := c.KNN(context.Background(), v, knnL)
		if err != nil {
			return nil, err
		}
		out[i] = nbs
	}
	return out, nil
}

func knnOf(logs []*clientLog) []float64 {
	var out []float64
	for _, l := range logs {
		out = append(out, l.knn...)
	}
	return out
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// latestCheckpoint is the newest checkpoint generation in dir.
func latestCheckpoint(dir string) (int64, error) {
	seq, _, ok, err := segment.LatestCheckpoint(dir)
	if err == nil && !ok {
		err = errors.New("no checkpoint in " + dir)
	}
	return seq, err
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// mutReplay bounds the mutation pairs the traced run replays.
const mutReplay = 64

// mixedLayers measures recovery on a copy of the closed directory, then
// replays the load's mutation pairs through the library on two replicas
// loaded from the pristine snapshot: one durable (FsyncAlways, with the
// server's checkpoint policy), one not. Their difference is the segment
// layer's commit cost.
func mixedLayers(rep *report, tr *tracer, o opts, g *ned.Graph, root, tenantDir string, logs []*clientLog, snap []byte, probe ned.NodeID, want []ned.Neighbor) error {
	recDir := filepath.Join(root, "recover")
	if err := copyDir(tenantDir, recDir); err != nil {
		return err
	}
	id := tr.begin("segment.OpenDurable", 0, 0)
	rc, err := ned.OpenDurable(recDir, ned.FsyncAlways)
	rep.layer("segment.recover_ms", msOf(tr.end(id)), "ms", 1)
	if err != nil {
		return err
	}
	id = tr.begin("corpus.KNN", 0, 0)
	first, err := rc.KNN(context.Background(), probe, knnL)
	rep.layer("corpus.first_query_ms", msOf(tr.end(id)), "ms", 1)
	if cerr := rc.CloseDurable(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rep.checked++
	if !slices.Equal(first, want) {
		rep.mismatch("mixed-durable after OpenDurable: got %v, want %v", first, want)
	}

	pairs := replayPairs(logs)
	if len(pairs) == 0 {
		return errors.New("the load made no mutations")
	}

	plain, err := replica(tr, snap, "", pairs)
	if err != nil {
		return err
	}
	durable, err := replica(tr, snap, filepath.Join(root, "replica"), pairs)
	if err != nil {
		return err
	}
	muts := len(plain.ms)
	rep.layer("corpus.mutate_ms_p50", pct(plain.ms, 0.5), "ms", muts)
	rep.layer("corpus.mutate_ms_p99", pct(plain.ms, 0.99), "ms", muts)
	rep.layer("corpus.clone_bytes_per_mut", float64(plain.cloneBytes)/float64(muts), "bytes", muts)
	commit := make([]float64, muts)
	for i := range commit {
		commit[i] = durable.ms[i] - plain.ms[i]
	}
	rep.layer("segment.commit_ms_p50", pct(commit, 0.5), "ms", muts)
	rep.layer("segment.commit_ms_p99", pct(commit, 0.99), "ms", muts)
	ckpt := 0.0
	if len(durable.ckptMS) > 0 {
		ckpt = pct(durable.ckptMS, 0.5)
	}
	rep.layer("segment.checkpoint_ms_p50", ckpt, "ms", len(durable.ckptMS))
	rep.layer("segment.checkpoints", float64(len(durable.ckptMS)), "count", muts)
	rep.layer("segment.bytes_per_mut", float64(durable.bytes)/float64(muts), "bytes", muts)
	return tr.write(filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.json", rep.workload, o.seed)))
}

// replayPairs are the first mutated nodes of the load, the ones the
// traced run replays.
func replayPairs(logs []*clientLog) []ned.NodeID {
	var pairs []ned.NodeID
	for _, l := range logs {
		pairs = append(pairs, l.pairs...)
	}
	return pairs[:min(len(pairs), mutReplay)]
}

// replicaStats is what one mutation replica measured.
type replicaStats struct {
	ms         []float64 // each Remove and Insert, checkpoints excluded
	ckptMS     []float64
	bytes      int64 // WAL plus checkpoint bytes written
	cloneBytes int64
}

// replica loads the snapshot, makes it durable in dir unless dir is
// empty, and applies each pair as Remove then Insert, checkpointing as
// the server does once the log holds checkpointEvery records.
func replica(tr *tracer, snap []byte, dir string, pairs []ned.NodeID) (replicaStats, error) {
	var rs replicaStats
	c, err := ned.LoadCorpus(bytes.NewReader(snap))
	if err != nil {
		return rs, err
	}
	if dir != "" {
		if err := c.MakeDurable(dir, ned.FsyncAlways); err != nil {
			return rs, err
		}
		defer c.CloseDurable()
	}
	st0 := c.Stats()
	for _, v := range pairs {
		for _, op := range []struct {
			name string
			f    func(...ned.NodeID) error
		}{{"corpus.Remove", c.Remove}, {"corpus.Insert", c.Insert}} {
			id := tr.begin(op.name, 0, 0)
			err := op.f(v)
			rs.ms = append(rs.ms, msOf(tr.end(id)))
			if err != nil {
				return rs, err
			}
		}
		if recs, walBytes, durable := c.DurableStats(); durable && recs >= checkpointEvery {
			id := tr.begin("segment.Checkpoint", 0, 0)
			err := c.Checkpoint()
			rs.ckptMS = append(rs.ckptMS, msOf(tr.end(id)))
			if err != nil {
				return rs, err
			}
			_, path, _, err := segment.LatestCheckpoint(dir)
			if err != nil {
				return rs, err
			}
			fi, err := os.Stat(path)
			if err != nil {
				return rs, err
			}
			rs.bytes += walBytes + fi.Size()
		}
	}
	if _, walBytes, durable := c.DurableStats(); durable {
		rs.bytes += walBytes
	}
	rs.cloneBytes = sum(c.Stats().ShardCloneBytes) - sum(st0.ShardCloneBytes)
	return rs, c.CloseDurable()
}
