package main

import (
	"fmt"
	"slices"
	"sync"

	"ned"
)

// oracle answers KNN exactly and independently of the engine under test:
// ned.PrunedTopL over every node's signature uses only the padding lower
// bound and TED* itself, none of the profile cascade, block kernels,
// index backends, shards or planner. Brute-force ned.TopL gives the same
// answers but measured 39 s per PGP query and 32 s per DBLP query.
type oracle struct {
	sigs []ned.Signature
}

func newOracle(g *ned.Graph) *oracle {
	nodes := make([]ned.NodeID, g.NumNodes())
	for i := range nodes {
		nodes[i] = ned.NodeID(i)
	}
	return &oracle{sigs: ned.SignaturesParallel(g, nodes, kDepth, ned.BatchOptions{Workers: 2})}
}

// signatureSizes is every node's signature size (tree nodes), the input
// property query cost grows with. The trees are dropped as soon as they
// are measured, so they do not sit in the heap during a load.
func signatureSizes(g *ned.Graph) []int {
	out := make([]int, g.NumNodes())
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := w; v < len(out); v += 2 {
				out[v] = ned.NewSignature(g, ned.NodeID(v), kDepth).Tree.Size()
			}
		}()
	}
	wg.Wait()
	return out
}

// answer is one sampled query and the neighbors the engine returned.
type answer struct {
	query ned.Signature
	got   []ned.Neighbor
	// maybeAbsent are nodes a concurrent mutation may have removed from
	// the index while the query ran.
	maybeAbsent []ned.NodeID
}

// check verifies every sampled answer, two at a time, and reports each
// mismatch. The exact answer allows for any subset of maybeAbsent
// having been missing from the index.
func (o *oracle) check(rep *report, what string, answers []answer, l int) {
	ok := make([]bool, len(answers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i := range answers {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			a := answers[i]
			want, _ := ned.PrunedTopL(a.query, o.sigs, l+len(a.maybeAbsent))
			ok[i] = consistent(a.got, want, l, a.maybeAbsent)
		}(i)
	}
	wg.Wait()
	for i, a := range answers {
		rep.checked++
		if !ok[i] {
			want, _ := ned.PrunedTopL(a.query, o.sigs, l)
			rep.mismatch("%s: query node %d: got %v, want %v (maybe absent: %v)", what, a.query.Node, a.got, want, a.maybeAbsent)
		}
	}
}

// consistent reports whether got is the first l of ranked after removing
// some subset of maybeAbsent.
func consistent(got, ranked []ned.Neighbor, l int, maybeAbsent []ned.NodeID) bool {
	if len(maybeAbsent) > 10 {
		return false // never happens with two clients; refuse rather than explode
	}
	for mask := 0; mask < 1<<len(maybeAbsent); mask++ {
		var want []ned.Neighbor
		for _, nb := range ranked {
			i := slices.Index(maybeAbsent, nb.Node)
			if i >= 0 && mask&(1<<i) != 0 {
				continue
			}
			if want = append(want, nb); len(want) == l {
				break
			}
		}
		if slices.Equal(got, want) {
			return true
		}
	}
	return false
}

// sameAnswers reports the first difference between two answer lists.
func sameAnswers(a, b [][]ned.Neighbor) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d answers vs %d", len(a), len(b))
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			return fmt.Errorf("answer %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}
