// Package hardness implements the NP-hardness reduction of Section 4: from a
// 3-dimensional matching (3DM) instance it constructs a microdata table T
// such that T has a 3-diverse suppression generalization with exactly
// 3n(d-1) stars if and only if the 3DM instance is a "yes" instance
// (Lemma 3). It also provides checkers for Properties 1-4 and a brute-force
// 3DM solver for small instances, so the equivalence can be exercised
// end-to-end in tests and examples.
package hardness

import (
	"fmt"

	"ldiv/internal/table"
)

// Instance3DM is a 3-dimensional matching instance: three disjoint domains of
// equal size N and a set of points in D1 x D2 x D3, each coordinate given as
// an index in [0, N).
type Instance3DM struct {
	N      int
	Points [][3]int
}

// Validate checks coordinate ranges and that points are distinct.
func (in *Instance3DM) Validate() error {
	if in.N <= 0 {
		return fmt.Errorf("hardness: N must be positive, got %d", in.N)
	}
	if len(in.Points) < in.N {
		return fmt.Errorf("hardness: 3DM needs at least N=%d points, got %d", in.N, len(in.Points))
	}
	seen := make(map[[3]int]bool)
	for i, p := range in.Points {
		for dim := 0; dim < 3; dim++ {
			if p[dim] < 0 || p[dim] >= in.N {
				return fmt.Errorf("hardness: point %d coordinate %d = %d outside [0,%d)", i, dim, p[dim], in.N)
			}
		}
		if seen[p] {
			return fmt.Errorf("hardness: duplicate point %v", p)
		}
		seen[p] = true
	}
	return nil
}

// Reduction is the constructed microdata table plus the bookkeeping needed to
// interpret it.
type Reduction struct {
	Instance *Instance3DM
	M        int // number of distinct sensitive values in T
	Table    *table.Table
	// SAOfRow[j] is the sensitive value u assigned to the j-th row (0-based).
	SAOfRow []int
}

// Build constructs the table T of Section 4 for the given number m of
// distinct sensitive values. It requires 3 <= m <= 3N.
func Build(in *Instance3DM, m int) (*Reduction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.N
	d := len(in.Points)
	if m < 3 || m > 3*n {
		return nil, fmt.Errorf("hardness: m must be in [3, 3N] = [3, %d], got %d", 3*n, m)
	}

	qi := make([]*table.Attribute, d)
	for i := 0; i < d; i++ {
		qi[i] = table.NewIntegerAttribute(fmt.Sprintf("A%d", i+1), m+1)
	}
	sa := table.NewIntegerAttribute("B", m+1)
	t := table.New(table.MustSchema(qi, sa))

	saOfRow := make([]int, 3*n)
	for j1 := 1; j1 <= 3*n; j1++ { // 1-based row index, as in the paper
		u := sensitiveValueFor(j1, m, n)
		saOfRow[j1-1] = u
		row := make([]int, d)
		dim, coord := valueOfRow(j1, n)
		for i := 0; i < d; i++ {
			if in.Points[i][dim] == coord {
				row[i] = 0
			} else {
				row[i] = u
			}
		}
		if err := t.AppendRow(row, u); err != nil {
			return nil, err
		}
	}
	return &Reduction{Instance: in, M: m, Table: t, SAOfRow: saOfRow}, nil
}

// valueOfRow maps the 1-based row index j to the domain (0, 1 or 2) and the
// coordinate value v_j it represents.
func valueOfRow(j, n int) (dim, coord int) {
	switch {
	case j <= n:
		return 0, j - 1
	case j <= 2*n:
		return 1, j - n - 1
	default:
		return 2, j - 2*n - 1
	}
}

// sensitiveValueFor implements the case analysis of Section 4 choosing the
// sensitive value u of the j-th row (1-based).
func sensitiveValueFor(j, m, n int) int {
	if j <= m-2 {
		return j
	}
	switch {
	case m-1 > 2*n:
		if j <= 3*n-1 {
			return m - 1
		}
		return m
	case m-1 > n:
		if j <= 2*n {
			return m - 1
		}
		return m
	default:
		if j <= n {
			return m - 2
		}
		if j <= 2*n {
			return m - 1
		}
		return m
	}
}

// StarsTarget returns 3n(d-1), the star count that characterizes "yes"
// instances (Property 4 / Lemma 3).
func (r *Reduction) StarsTarget() int {
	return 3 * r.Instance.N * (len(r.Instance.Points) - 1)
}

// MatchingPartition converts a 3DM solution (a list of point indices) into
// the partition of T described in the "only if" direction of Lemma 3: one
// useful QI-group per selected point, containing the three rows that have 0
// on that point's column.
func (r *Reduction) MatchingPartition(solution []int) ([][]int, error) {
	n := r.Instance.N
	if len(solution) != n {
		return nil, fmt.Errorf("hardness: solution selects %d points, want %d", len(solution), n)
	}
	groups := make([][]int, 0, n)
	used := make([]bool, 3*n)
	for _, pi := range solution {
		if pi < 0 || pi >= len(r.Instance.Points) {
			return nil, fmt.Errorf("hardness: point index %d out of range", pi)
		}
		var g []int
		for j := 0; j < 3*n; j++ {
			if r.Table.QIAt(j, pi) == 0 {
				g = append(g, j)
			}
		}
		if len(g) != 3 {
			return nil, fmt.Errorf("hardness: column %d has %d zeros, want 3", pi, len(g))
		}
		for _, row := range g {
			if used[row] {
				return nil, fmt.Errorf("hardness: row %d covered twice; the solution is not a matching", row)
			}
			used[row] = true
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// Solve3DM finds a perfect 3-dimensional matching by backtracking, returning
// the selected point indices or ok=false if none exists. It is exponential
// and intended for the small instances used in tests and examples.
func Solve3DM(in *Instance3DM) (solution []int, ok bool) {
	if err := in.Validate(); err != nil {
		return nil, false
	}
	n := in.N
	// Index points by their first coordinate for a structured search.
	byFirst := make([][]int, n)
	for i, p := range in.Points {
		byFirst[p[0]] = append(byFirst[p[0]], i)
	}
	usedD2 := make([]bool, n)
	usedD3 := make([]bool, n)
	chosen := make([]int, 0, n)
	var rec func(coord int) bool
	rec = func(coord int) bool {
		if coord == n {
			return true
		}
		for _, pi := range byFirst[coord] {
			p := in.Points[pi]
			if usedD2[p[1]] || usedD3[p[2]] {
				continue
			}
			usedD2[p[1]], usedD3[p[2]] = true, true
			chosen = append(chosen, pi)
			if rec(coord + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
			usedD2[p[1]], usedD3[p[2]] = false, false
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	out := make([]int, n)
	copy(out, chosen)
	return out, true
}
