package hungarian

import (
	"math/rand"
	"testing"
)

// poison fills the rows a lazy solve has not built yet. It is negative
// and huge, so a solve that read a row before filling it would come out
// far cheaper than the true optimum and fail the comparison with Solve.
const poison = -(Inf / 8)

// checkSolveRows runs one lazy solve of the n×n matrix full, whose
// entries are all >= floor, and checks the SolveRows contract against
// the eager solvers. Rows are filled in order 0, 1, .... A completed
// solve is bit-identical to Solve (total and assignment) and happens
// exactly when the optimum fits the budget. An abort returns a value in
// (budget, optimum], and stops as early as the bound allows: after k
// filled rows it returns the bound of those k rows, and the bound of
// the first k-1 rows still fit the budget, so row k had to be built.
// With k = 0 that means n·floor > budget.
func checkSolveRows(t *testing.T, s *Solver, full []int64, n int, floor, budget int64) {
	t.Helper()
	want, wantAssign := SolveFlat(full, n)
	wantAssign = append([]int(nil), wantAssign...)

	lazy := make([]int64, n*n)
	for i := range lazy {
		lazy[i] = poison
	}
	filled := 0
	fill := func(i int, row []int64) {
		if i != filled {
			t.Fatalf("row %d filled, want row %d next", i, filled)
		}
		if len(row) != n || &row[0] != &lazy[i*n] {
			t.Fatalf("row %d: fill got the wrong slice (len %d)", i, len(row))
		}
		copy(row, full[i*n:(i+1)*n])
		filled++
	}
	got, assign, complete := s.SolveRows(lazy, n, budget, floor, fill)

	if complete != (want <= budget) {
		t.Fatalf("n=%d floor=%d budget=%d: complete=%v, optimum %d", n, floor, budget, complete, want)
	}
	if complete {
		if filled != n {
			t.Fatalf("n=%d budget=%d: completed after filling %d rows", n, budget, filled)
		}
		if got != want {
			t.Fatalf("n=%d budget=%d: lazy total %d, Solve %d", n, budget, got, want)
		}
		for i := range wantAssign {
			if assign[i] != wantAssign[i] {
				t.Fatalf("n=%d budget=%d: row %d assigned col %d, Solve col %d", n, budget, i, assign[i], wantAssign[i])
			}
		}
		return
	}
	if got <= budget || got > want {
		t.Fatalf("n=%d floor=%d budget=%d: abort value %d outside (budget, optimum=%d]", n, floor, budget, got, want)
	}
	// bound(k): the cheapest matching of the first k rows plus the floor
	// of each row after them.
	bound := func(k int) int64 {
		prefix := make([][]int64, n)
		for i := range prefix {
			prefix[i] = make([]int64, n)
			if i < k {
				copy(prefix[i], full[i*n:(i+1)*n])
			}
		}
		opt, _ := Solve(prefix)
		return opt + int64(n-k)*floor
	}
	if b := bound(filled); got != b {
		t.Fatalf("n=%d floor=%d budget=%d: aborted after %d rows with %d, want that prefix's bound %d", n, floor, budget, filled, got, b)
	}
	if filled > 0 {
		if b := bound(filled - 1); b > budget {
			t.Fatalf("n=%d floor=%d budget=%d: row %d filled although %d rows already bounded the optimum by %d", n, floor, budget, filled-1, filled-1, b)
		}
	}
}

// randomFloored draws an n×n matrix whose entries are all >= floor.
func randomFloored(rng *rand.Rand, n int, floor int64, spread int) []int64 {
	cost := randomFlat(rng, n, spread)
	for i := range cost {
		cost[i] += floor
	}
	return cost
}

// TestSolveRowsContract sweeps the budget from below the floor bound to
// past the optimum on random matrices with floors 0, 1 and 2.
func TestSolveRowsContract(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	var s Solver
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(14)
		floor := int64(trial % 3)
		full := randomFloored(rng, n, floor, 1+rng.Intn(9))
		want, _ := SolveFlat(full, n)
		for budget := int64(-1); budget <= want+2; budget++ {
			checkSolveRows(t, &s, full, n, floor, budget)
		}
		checkSolveRows(t, &s, full, n, floor, Inf)
	}
}

// TestSolveRowsFloorSavesRows: with a floor the solve stops before
// building the rows the bound already rules out, and with no room for
// even the floor it builds none.
func TestSolveRowsFloorSavesRows(t *testing.T) {
	const n = 20
	full := make([]int64, n*n)
	for i := range full {
		full[i] = 1
	}
	var s Solver
	for _, tc := range []struct {
		floor, budget int64
		rows          int
	}{
		{floor: 0, budget: 10, rows: 11}, // the partial cost alone crosses 10 at row 11
		{floor: 1, budget: 10, rows: 0},  // 20 rows of cost >= 1 never fit 10
		{floor: 1, budget: 19, rows: 0},
		{floor: 1, budget: 20, rows: n}, // the optimum fits exactly
	} {
		filled := 0
		_, _, complete := s.SolveRows(make([]int64, n*n), n, tc.budget, tc.floor, func(i int, row []int64) {
			copy(row, full[i*n:(i+1)*n])
			filled++
		})
		if filled != tc.rows || complete != (tc.rows == n) {
			t.Fatalf("floor %d budget %d: filled %d rows (complete=%v), want %d", tc.floor, tc.budget, filled, complete, tc.rows)
		}
	}
}

// FuzzSolveRows checks the SolveRows contract on fuzzed matrices: the
// first byte picks n, the next n² bytes the entries above the floor.
func FuzzSolveRows(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 2}, uint8(1), int64(3))
	f.Add([]byte{3, 9, 9, 9, 0, 1, 2, 5, 5, 5}, uint8(0), int64(4))
	f.Add([]byte{5}, uint8(2), int64(9))
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), int64(-2))
	f.Fuzz(func(t *testing.T, data []byte, floorByte uint8, budget int64) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%10)
		floor := int64(floorByte % 5)
		full := make([]int64, n*n)
		for i := range full {
			var b byte
			if 1+i < len(data) {
				b = data[1+i]
			}
			full[i] = floor + int64(b%16)
		}
		var s Solver
		checkSolveRows(t, &s, full, n, floor, budget)
	})
}
