package ted

import (
	"testing"

	"ned/internal/tree"
)

// profiledPair is one oriented tree pair with its compiled profiles.
type profiledPair struct {
	t1, t2 *tree.Tree
	p1, p2 *tree.Profile
}

// profiledPairs orients and profiles the non-isomorphic pairs among
// trees, at most span partners per tree, as the cascade would hand
// them to the verify stage.
func profiledPairs(trees []*tree.Tree, span int) []profiledPair {
	in := tree.NewInterner()
	profiles := make([]*tree.Profile, len(trees))
	for i, tr := range trees {
		profiles[i] = in.Profile(tr)
	}
	var out []profiledPair
	for i := range trees {
		for j := i + 1; j < len(trees) && j <= i+span; j++ {
			a, b, pa, pb := trees[i], trees[j], profiles[i], profiles[j]
			if pa.Canon == pb.Canon {
				continue
			}
			if profileSwapTest(a, b, pa, pb) {
				a, b, pa, pb = b, a, pb, pa
			}
			out = append(out, profiledPair{a, b, pa, pb})
		}
	}
	return out
}

// TestResidualCostFloor checks the proof obligation behind
// residualFloor: every entry of every residual cost row, built by the
// scalar level and by the profiled faithful level, is at least the
// floor. Both sweeps run unbudgeted, so every residual row is built.
// The first residual row of a profiled evaluation always comes from
// levelFaithful, since the sweep stays faithful until its first
// non-empty residue; that is how the test knows both fills ran.
func TestResidualCostFloor(t *testing.T) {
	pairs := profiledPairs(append(fuzzSeedTrees(t), randomTrees(100)...), 20)
	var pair profiledPair
	var rows int
	check := func(row []int64) {
		rows++
		for ci, v := range row {
			if v < residualFloor {
				t.Fatalf("residual entry [%d] = %d below the floor %d for %q vs %q",
					ci, v, residualFloor, tree.Encode(pair.t1), tree.Encode(pair.t2))
			}
		}
	}
	scalar, profiled := NewComputer(), NewComputer()
	scalar.costRowHook, profiled.costRowHook = check, check
	scalarRows, faithfulPairs := 0, 0
	for _, pair = range pairs {
		rows = 0
		scalar.DistanceAtMostOriented(pair.t1, pair.t2, pair.p1.Levels, pair.p2.Levels, Unbounded)
		scalarRows += rows
		rows = 0
		profiled.DistanceAtMostProfiled(pair.t1, pair.t2, pair.p1, pair.p2, Unbounded)
		if rows > 0 {
			faithfulPairs++
		}
	}
	if scalarRows == 0 || faithfulPairs == 0 {
		t.Fatalf("sweep built %d scalar rows and reached levelFaithful's fill on %d pairs; both must be > 0",
			scalarRows, faithfulPairs)
	}
	t.Logf("%d pairs: %d scalar residual rows, %d pairs with a faithful residue", len(pairs), scalarRows, faithfulPairs)
}

// abortedPairs returns the pairs among randomTrees whose profiled TED*
// aborts mid-sweep under a budget halfway between the padding lower
// bound and the exact distance, with that budget.
func abortedPairs(tb testing.TB) ([]profiledPair, []int) {
	c := NewComputer()
	var pairs []profiledPair
	var budgets []int
	for _, pr := range profiledPairs(randomTrees(60), 8) {
		lb := LowerBound(pr.t1, pr.t2)
		budget := lb + (c.Distance(pr.t1, pr.t2)-lb)/2
		if _, out := c.DistanceAtMostProfiled(pr.t1, pr.t2, pr.p1, pr.p2, budget); out == OutcomeAborted {
			pairs = append(pairs, pr)
			budgets = append(budgets, budget)
		}
	}
	if len(pairs) < 20 {
		tb.Fatalf("only %d pairs abort halfway between bound and distance", len(pairs))
	}
	return pairs, budgets
}

// TestDistanceAtMostProfiledAbortedZeroAlloc guards the verify stage's
// zero-allocation property on the abort path, the lazy row fill
// included: after one warm-up pass a Computer allocates nothing.
func TestDistanceAtMostProfiledAbortedZeroAlloc(t *testing.T) {
	pairs, budgets := abortedPairs(t)
	c := NewComputer()
	run := func() {
		for i, pr := range pairs {
			c.DistanceAtMostProfiled(pr.t1, pr.t2, pr.p1, pr.p2, budgets[i])
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("aborted DistanceAtMostProfiled sweep allocates %.1f times per run after warm-up", allocs)
	}
}

// BenchmarkDistanceAtMostAborted times the profiled verify stage on
// pairs that abort mid-sweep, the dominant outcome of a KNN verify
// stage once its kth-best is tight.
func BenchmarkDistanceAtMostAborted(b *testing.B) {
	pairs, budgets := abortedPairs(b)
	c := NewComputer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(pairs)
		pr := pairs[j]
		c.DistanceAtMostProfiled(pr.t1, pr.t2, pr.p1, pr.p2, budgets[j])
	}
}
