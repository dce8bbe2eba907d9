// Package hungarian solves the assignment problem (minimum-cost perfect
// matching in a complete weighted bipartite graph) in O(n³) time using
// the shortest-augmenting-path formulation of the Hungarian algorithm
// with dual potentials (Jonker–Volgenant style).
//
// TED* (§5.5 of the NED paper) solves one such matching per tree level;
// this package is its hot path. Under a budget the solver builds cost
// rows only as it reaches them and stops once a lower bound on the
// optimum exceeds the budget; the value it then returns is that lower
// bound, not a specific partial cost (see Solver.SolveRows).
package hungarian

import "math"

// Inf is the sentinel used internally for "no edge"; costs supplied by
// callers must be finite and small enough that row sums do not overflow.
const Inf = math.MaxInt64 / 4

// Solver is a reusable workspace for the flat row-major assignment
// problem. All buffers are preallocated and grown geometrically, so a
// Solver amortizes to zero allocations across calls — the property the
// TED* hot path depends on (one matching per tree level per candidate
// pair). A Solver is not safe for concurrent use; pool one per worker.
type Solver struct {
	u, v   []int64
	p, way []int
	minv   []int64
	used   []bool
	assign []int
}

// grow sizes every buffer for an n×n problem.
func (s *Solver) grow(n int) {
	if cap(s.u) < n+1 {
		s.u = make([]int64, n+1)
		s.v = make([]int64, n+1)
		s.p = make([]int, n+1)
		s.way = make([]int, n+1)
		s.minv = make([]int64, n+1)
		s.used = make([]bool, n+1)
		s.assign = make([]int, n)
	}
	s.u = s.u[:n+1]
	s.v = s.v[:n+1]
	s.p = s.p[:n+1]
	s.way = s.way[:n+1]
	s.minv = s.minv[:n+1]
	s.used = s.used[:n+1]
	s.assign = s.assign[:n]
	for i := range s.u {
		s.u[i] = 0
		s.v[i] = 0
		s.p[i] = 0
	}
}

// Solve computes the minimum-cost perfect matching of the row-major n×n
// matrix cost. Semantics and results are identical to SolveFlat; the
// returned assignment aliases the Solver's internal buffer and is valid
// until the next call.
func (s *Solver) Solve(cost []int64, n int) (total int64, rowToCol []int) {
	total, rowToCol, _ = s.SolveRows(cost, n, Inf, 0, nil)
	return total, rowToCol
}

// SolveAtMost is Solve with an early-abort budget on a fully built
// matrix: SolveRows with no per-entry floor and no row fill.
func (s *Solver) SolveAtMost(cost []int64, n int, budget int64) (total int64, rowToCol []int, complete bool) {
	return s.SolveRows(cost, n, budget, 0, nil)
}

// SolveRows is the solve loop behind Solve and SolveAtMost. It adds the
// rows of the n×n row-major matrix cost one at a time, and the solve
// reads row i only once row i has been added, so a non-nil fill is
// called as fill(i, cost[i*n:(i+1)*n]) just before row i is added, for
// i = 0, 1, ... in order; rows past an abort are never filled. A nil
// fill means the matrix is already built.
//
// floor is a lower bound the caller guarantees for every entry (0 when
// nothing is known). After i rows the optimal partial matching of those
// rows costs partial_i, and every remaining row costs at least floor,
// so the optimum is at least partial_i + (n-i)·floor; the solve stops
// as soon as that bound exceeds budget, which for i = 0 means before
// any row is filled once n·floor > budget. In that case it returns
// (bound, nil, false) with budget < bound <= optimum: a lower bound,
// not any particular partial cost. Otherwise it returns the exact
// (total, assignment, true), and the result is the same for every
// floor, fill and budget >= the optimum. A solve completes exactly when
// the optimum is <= budget; a budget of Inf never aborts.
func (s *Solver) SolveRows(cost []int64, n int, budget, floor int64, fill func(i int, row []int64)) (total int64, rowToCol []int, complete bool) {
	if n == 0 {
		return 0, nil, true
	}
	if budget < Inf {
		if bound := int64(n) * floor; bound > budget {
			return bound, nil, false
		}
	}
	s.grow(n)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	// Equal-length views, so the compiler can drop the bounds checks in
	// the two scans below: v, minv, p and used span columns 0..n, and
	// the c-suffixed views span columns 1..n, lined up with a cost row.
	v, minv, p = v[:len(used)], minv[:len(used)], p[:len(used)]
	usedC := used[1:]
	vC, minvC, wayC := v[1:len(used)], minv[1:len(used)], way[1:len(used)]
	vC, minvC, wayC = vC[:len(usedC)], minvC[:len(usedC)], wayC[:len(usedC)]

	for i := 1; i <= n; i++ {
		if fill != nil {
			fill(i-1, cost[(i-1)*n:i*n])
		}
		p[0] = i
		j0 := 0
		for j := range used {
			minv[j] = Inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			row := cost[(i0-1)*n:][:len(usedC)]
			ui0 := u[i0]
			var delta int64 = Inf
			j1 := -1
			for k, c := range row {
				if usedC[k] {
					continue
				}
				cur := c - ui0 - vC[k]
				if cur < minvC[k] {
					minvC[k] = cur
					wayC[k] = j0
				}
				if minvC[k] < delta {
					delta = minvC[k]
					j1 = k + 1
				}
			}
			for j, uj := range used {
				if uj {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
		if budget < Inf {
			// Cost of the optimal matching of the first i rows (costs
			// are non-negative, so adding rows never cheapens it), plus
			// the floor of each row still to come: a lower bound on the
			// final total.
			bound := int64(n-i) * floor
			for j := 1; j <= n; j++ {
				if p[j] != 0 {
					bound += cost[(p[j]-1)*n+j-1]
				}
			}
			if bound > budget {
				return bound, nil, false
			}
		}
	}

	rowToCol = s.assign
	for j := 1; j <= n; j++ {
		rowToCol[p[j]-1] = j - 1
	}
	for i := 0; i < n; i++ {
		total += cost[i*n+rowToCol[i]]
	}
	return total, rowToCol, true
}

// Solve computes a minimum-cost perfect matching of the n×n cost matrix
// cost (cost[i][j] = weight of assigning row i to column j). It returns
// the total cost and the assignment vector rowToCol where rowToCol[i] is
// the column matched to row i. Costs must be non-negative. An empty
// matrix yields (0, nil).
//
// The matrix must be square; TED* always pads levels to equal size before
// matching (§5.2), so the square case is the only one it needs. Rectangular
// callers can pad with zero rows/columns via SolveRect.
func Solve(cost [][]int64) (total int64, rowToCol []int) {
	n := len(cost)
	if n == 0 {
		return 0, nil
	}
	flat := make([]int64, 0, n*n)
	for _, row := range cost {
		flat = append(flat, row...)
	}
	return SolveFlat(flat, n)
}

// SolveRect handles rectangular matrices by padding the smaller dimension
// with zero-cost dummy rows or columns. Rows matched to dummy columns
// (and vice versa) appear as -1 in the returned assignments.
func SolveRect(cost [][]int64) (total int64, rowToCol []int) {
	rows := len(cost)
	if rows == 0 {
		return 0, nil
	}
	cols := len(cost[0])
	n := rows
	if cols > n {
		n = cols
	}
	sq := make([][]int64, n)
	for i := range sq {
		sq[i] = make([]int64, n)
		if i < rows {
			copy(sq[i], cost[i])
		}
	}
	t, assign := Solve(sq)
	rowToCol = make([]int, rows)
	for i := 0; i < rows; i++ {
		if assign[i] < cols {
			rowToCol[i] = assign[i]
		} else {
			rowToCol[i] = -1
		}
	}
	return t, rowToCol
}

// SolveFlat is Solve for a row-major flattened n×n matrix; it avoids the
// per-row slice headers on hot paths. Semantics match Solve. One-shot
// form of Solver.Solve, which reuses its workspace across calls.
func SolveFlat(cost []int64, n int) (total int64, rowToCol []int) {
	if n == 0 {
		return 0, nil
	}
	var s Solver
	return s.Solve(cost, n)
}

// Greedy computes a (suboptimal) matching by repeatedly taking each row's
// cheapest unused column. It exists only as an ablation baseline showing
// why TED* needs an optimal matcher; its result can exceed the optimum.
func Greedy(cost [][]int64) (total int64, rowToCol []int) {
	n := len(cost)
	rowToCol = make([]int, n)
	usedCol := make([]bool, n)
	for i := 0; i < n; i++ {
		best := -1
		for j := 0; j < n; j++ {
			if usedCol[j] {
				continue
			}
			if best == -1 || cost[i][j] < cost[i][best] {
				best = j
			}
		}
		rowToCol[i] = best
		usedCol[best] = true
		total += cost[i][best]
	}
	return total, rowToCol
}
