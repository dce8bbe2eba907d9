package ned

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

var allBackends = []Backend{BackendVP, BackendBK, BackendLinear, BackendPrunedLinear}

// randomGraph builds a seeded Erdős–Rényi-style graph: n nodes, about m
// distinct edges, no self-loops.
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]NodeID]bool{}
	b := NewGraphBuilder(n, false)
	for len(seen) < m {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]NodeID{u, v}
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(u, v)
	}
	return b.Build()
}

func neighborDists(ns []Neighbor) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.Dist
	}
	return out
}

// TestCorpusBackendEquivalence is the backend-equivalence property: on
// seeded random graphs, every backend must return identical KNN distance
// multisets and identical Range result sets through the one Corpus API.
func TestCorpusBackendEquivalence(t *testing.T) {
	ctx := context.Background()
	const k = 2
	for trial := int64(0); trial < 5; trial++ {
		gQuery := randomGraph(60, 120, 100+trial)
		gCorpus := randomGraph(80, 170, 200+trial)

		corpora := make(map[Backend]*Corpus, len(allBackends))
		for _, b := range allBackends {
			c, err := NewCorpus(gCorpus, k, WithBackend(b))
			if err != nil {
				t.Fatalf("trial %d: NewCorpus(%v): %v", trial, b, err)
			}
			corpora[b] = c
		}

		rng := rand.New(rand.NewSource(300 + trial))
		for q := 0; q < 8; q++ {
			sig := NewSignature(gQuery, NodeID(rng.Intn(gQuery.NumNodes())), k)
			l := 1 + rng.Intn(12)
			r := rng.Intn(6)

			ref, err := corpora[BackendLinear].KNNSignature(ctx, sig, l)
			if err != nil {
				t.Fatalf("trial %d: linear KNN: %v", trial, err)
			}
			refRange, err := corpora[BackendLinear].Range(ctx, sig, r)
			if err != nil {
				t.Fatalf("trial %d: linear Range: %v", trial, err)
			}
			refNearest, err := corpora[BackendLinear].NearestSet(ctx, sig)
			if err != nil {
				t.Fatalf("trial %d: linear NearestSet: %v", trial, err)
			}

			for _, b := range allBackends[:3] { // skip linear vs itself
				got, err := corpora[b].KNNSignature(ctx, sig, l)
				if err != nil {
					t.Fatalf("trial %d: %v KNN: %v", trial, b, err)
				}
				// KNN contract: identical distance multiset (distances are
				// sorted, so slice equality compares multisets).
				if fmt.Sprint(neighborDists(got)) != fmt.Sprint(neighborDists(ref)) {
					t.Errorf("trial %d query %d: %v KNN dists %v, linear %v",
						trial, q, b, neighborDists(got), neighborDists(ref))
				}

				// Range contract: identical result set, including nodes.
				gotRange, err := corpora[b].Range(ctx, sig, r)
				if err != nil {
					t.Fatalf("trial %d: %v Range: %v", trial, b, err)
				}
				if fmt.Sprint(gotRange) != fmt.Sprint(refRange) {
					t.Errorf("trial %d query %d: %v Range %v, linear %v",
						trial, q, b, gotRange, refRange)
				}

				gotNearest, err := corpora[b].NearestSet(ctx, sig)
				if err != nil {
					t.Fatalf("trial %d: %v NearestSet: %v", trial, b, err)
				}
				if fmt.Sprint(gotNearest) != fmt.Sprint(refNearest) {
					t.Errorf("trial %d query %d: %v NearestSet %v, linear %v",
						trial, q, b, gotNearest, refNearest)
				}
			}
		}
	}
}

func TestCorpusMatchesLowLevelTopL(t *testing.T) {
	g1, g2 := testGraphPair(t)
	const k, l = 2, 7
	c, err := NewCorpus(g2, k, WithBackend(BackendLinear))
	if err != nil {
		t.Fatal(err)
	}
	sig := NewSignature(g1, 3, k)
	got, err := c.KNNSignature(context.Background(), sig, l)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []NodeID
	for v := 0; v < g2.NumNodes(); v++ {
		nodes = append(nodes, NodeID(v))
	}
	want := TopL(sig, Signatures(g2, nodes, k), l)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Corpus KNN %v != low-level TopL %v", got, want)
	}
}

func TestCorpusTypedErrors(t *testing.T) {
	g := randomGraph(20, 30, 1)
	ctx := context.Background()

	if _, err := NewCorpus(nil, 3); !errors.Is(err, ErrNilGraph) {
		t.Errorf("nil graph: got %v, want ErrNilGraph", err)
	}
	if _, err := NewCorpus(g, 0); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0: got %v, want ErrBadK", err)
	}
	if _, err := NewCorpus(g, 3, WithBackend(Backend(99))); !errors.Is(err, ErrBadBackend) {
		t.Errorf("backend 99: got %v, want ErrBadBackend", err)
	}
	if _, err := NewCorpus(g, 3, WithNodes([]NodeID{5, 25})); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("out-of-range subset: got %v, want ErrNodeOutOfRange", err)
	}

	c, err := NewCorpus(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.KNN(ctx, 99, 3); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("KNN node 99: got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := c.KNN(ctx, 0, 0); !errors.Is(err, ErrBadL) {
		t.Errorf("l=0: got %v, want ErrBadL", err)
	}
	sig := NewSignature(g, 0, 2) // wrong k
	if _, err := c.KNNSignature(ctx, sig, 3); !errors.Is(err, ErrKMismatch) {
		t.Errorf("k mismatch: got %v, want ErrKMismatch", err)
	}
	if _, err := c.KNNSignature(ctx, Signature{}, 3); !errors.Is(err, ErrBadSignature) {
		t.Errorf("empty signature: got %v, want ErrBadSignature", err)
	}
	if _, err := c.Range(ctx, NewSignature(g, 0, 3), -1); !errors.Is(err, ErrBadRadius) {
		t.Errorf("r=-1: got %v, want ErrBadRadius", err)
	}

	if _, err := ParseBackend("zorp"); !errors.Is(err, ErrBadBackend) {
		t.Errorf("ParseBackend(zorp): got %v, want ErrBadBackend", err)
	}
	for _, b := range allBackends {
		got, err := ParseBackend(b.String())
		if err != nil || got != b {
			t.Errorf("ParseBackend(%q) = %v, %v", b.String(), got, err)
		}
	}
}

func TestCorpusPreCanceledContext(t *testing.T) {
	g := randomGraph(40, 80, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sig := NewSignature(g, 0, 3)
	for _, b := range allBackends {
		c, err := NewCorpus(g, 3, WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.KNNSignature(ctx, sig, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%v KNN pre-canceled: got %v, want context.Canceled", b, err)
		}
		if _, err := c.Range(ctx, sig, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%v Range pre-canceled: got %v, want context.Canceled", b, err)
		}
		if _, err := c.BatchKNN(ctx, []Signature{sig}, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("%v BatchKNN pre-canceled: got %v, want context.Canceled", b, err)
		}
	}
}

// TestCorpusCancelInFlightBatch cancels a large batch shortly after it
// starts; the batch must abort with context.Canceled instead of running
// to completion. The workload (hundreds of thousands of TED*
// evaluations on a single worker) takes far longer than the cancel
// delay on any hardware.
func TestCorpusCancelInFlightBatch(t *testing.T) {
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 0.5, Seed: 3})
	c, err := NewCorpus(g, 3, WithBackend(BackendLinear), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var sigs []Signature
	for v := 0; v < 100; v++ {
		sigs = append(sigs, NewSignature(g, NodeID(v), 3))
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.BatchKNN(ctx, sigs, 5)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("in-flight batch: got %v, want context.Canceled", err)
	}
}

// TestCorpusConcurrentQueries hammers one corpus from many goroutines;
// under -race this verifies the atomic stats counters and lazy build.
func TestCorpusConcurrentQueries(t *testing.T) {
	g := randomGraph(60, 120, 4)
	for _, b := range allBackends {
		c, err := NewCorpus(g, 2, WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 10; i++ {
					v := NodeID(rng.Intn(g.NumNodes()))
					if _, err := c.KNN(ctx, v, 3); err != nil {
						t.Errorf("%v concurrent KNN: %v", b, err)
						return
					}
					c.Stats()
				}
			}(int64(w))
		}
		wg.Wait()
		s := c.Stats()
		if s.Queries != 80 {
			t.Errorf("%v: Queries = %d, want 80", b, s.Queries)
		}
		if !s.Built || s.DistanceCalls == 0 {
			t.Errorf("%v: stats not tracking: %+v", b, s)
		}
	}
}

func TestCorpusWithNodesSubset(t *testing.T) {
	g := randomGraph(50, 100, 5)
	subset := []NodeID{3, 7, 11, 19, 23}
	c, err := NewCorpus(g, 2, WithNodes(subset), WithBackend(BackendLinear))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.KNN(context.Background(), 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(subset) {
		t.Fatalf("got %d results, want %d", len(res), len(subset))
	}
	allowed := map[NodeID]bool{}
	for _, v := range subset {
		allowed[v] = true
	}
	for _, n := range res {
		if !allowed[n.Node] {
			t.Errorf("node %d not in the WithNodes subset", n.Node)
		}
	}
	if s := c.Stats(); s.Nodes != len(subset) {
		t.Errorf("Stats.Nodes = %d, want %d", s.Nodes, len(subset))
	}

	// An explicitly empty subset means an empty corpus, not the whole
	// graph.
	empty, err := NewCorpus(g, 2, WithNodes([]NodeID{}), WithBackend(BackendLinear))
	if err != nil {
		t.Fatal(err)
	}
	res, err = empty.KNN(context.Background(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty WithNodes corpus returned %d results, want 0", len(res))
	}
}

func TestCorpusDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewGraphBuilder(40, true)
	for i := 0; i < 90; i++ {
		u, v := NodeID(rng.Intn(40)), NodeID(rng.Intn(40))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Build()
	ctx := context.Background()

	c, err := NewCorpus(g, 2, WithDirected(), WithBackend(BackendLinear))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.KNN(ctx, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Directed distances must match the low-level directed NED.
	for _, n := range res {
		if want := DistanceDirected(g, 0, g, n.Node, 2); n.Dist != want {
			t.Errorf("directed KNN dist to %d = %d, want %d", n.Node, n.Dist, want)
		}
	}
	// Single-tree signature queries are typed errors in directed mode.
	if _, err := c.KNNSignature(ctx, NewSignature(g, 0, 2), 3); !errors.Is(err, ErrDirectedSignature) {
		t.Errorf("directed signature query: got %v, want ErrDirectedSignature", err)
	}

	// Directed backends agree with each other too.
	for _, backend := range allBackends {
		cb, err := NewCorpus(g, 2, WithDirected(), WithBackend(backend))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cb.KNN(ctx, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(neighborDists(got)) != fmt.Sprint(neighborDists(res)) {
			t.Errorf("%v directed KNN dists %v, linear %v",
				backend, neighborDists(got), neighborDists(res))
		}
	}
}

func TestCorpusLazyBuildAndSignature(t *testing.T) {
	g := randomGraph(30, 60, 7)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Built {
		t.Error("corpus reported built before any query")
	}
	sig, err := c.Signature(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Signature(999); !errors.Is(err, ErrNodeOutOfRange) {
		t.Errorf("Signature(999): got %v, want ErrNodeOutOfRange", err)
	}
	if _, err := c.KNNSignature(context.Background(), sig, 3); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); !s.Built || s.Queries != 1 {
		t.Errorf("after one query: %+v", s)
	}
}

// TestCorpusDefaultBackend pins the engine default: a corpus built
// without WithBackend serves from the pruned scan, while an explicit
// "vp" still parses and selects the VP-tree.
func TestCorpusDefaultBackend(t *testing.T) {
	g := randomGraph(30, 60, 7)
	c, err := NewCorpus(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Backend != BackendPrunedLinear {
		t.Fatalf("default backend %v, want %v", s.Backend, BackendPrunedLinear)
	}
	b, err := ParseBackend("vp")
	if err != nil || b != BackendVP {
		t.Fatalf(`ParseBackend("vp") = %v, %v`, b, err)
	}
	vp, err := NewCorpus(g, 2, WithBackend(b))
	if err != nil {
		t.Fatal(err)
	}
	if s := vp.Stats(); s.Backend != BackendVP {
		t.Fatalf("explicit vp corpus reports %v", s.Backend)
	}
}

// TestRecordedVPBackendLoadsAsVP checks that snapshots and segments
// recording backend=vp load as VP, whatever the engine default is.
func TestRecordedVPBackendLoadsAsVP(t *testing.T) {
	g := randomGraph(40, 90, 19)
	c, err := NewCorpus(g, 2, WithBackend(BackendVP))
	if err != nil {
		t.Fatal(err)
	}
	var text, seg bytes.Buffer
	if err := c.Snapshot(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "backend=vp") {
		t.Fatalf("text snapshot does not record backend=vp:\n%.200s", text.String())
	}
	if err := c.SnapshotSegment(&seg); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"text": &text, "segment": &seg} {
		loaded, err := LoadCorpus(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s := loaded.Stats(); s.Backend != BackendVP {
			t.Fatalf("%s snapshot recording vp loaded as %v", name, s.Backend)
		}
	}
}

// TestVPTieAtLthPlacePGP1890 is the regression test for a VP answer
// that broke the canonical (distance, node) order at the l-th place:
// on the PGP analog (scale 1, seed 1, k=3, two shards) KNN(1890, 5)
// returned {1232 6} where node 1195 ties at distance 6. The computed
// TED* misses the triangle inequality by one on a vantage point of
// that search, and a strict VP search pruned node 1195 away. The test
// indexes only the nodes of the shard that lost it (same items, same
// tree, half the build) and checks against the brute-force TopL.
func TestVPTieAtLthPlacePGP1890(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a VP-tree over 1335 PGP nodes")
	}
	const (
		k = 3
		v = NodeID(1890)
		l = 5
	)
	g := MustGenerateDataset(DatasetPGP, DatasetOptions{Scale: 1, Seed: 1})
	var nodes []NodeID
	for u := 0; u < g.NumNodes(); u++ {
		if HashShard(NodeID(u), 2) == HashShard(v, 2) {
			nodes = append(nodes, NodeID(u))
		}
	}
	want := TopL(NewSignature(g, v, k), Signatures(g, nodes, k), l)
	c, err := NewCorpus(g, k, WithBackend(BackendVP), WithShards(1), WithNodes(nodes))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.KNN(context.Background(), v, l)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("VP KNN(%d, %d) = %v, brute force %v", v, l, got, want)
	}
}
