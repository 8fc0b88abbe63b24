package matching

import (
	"fmt"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// OptimalTwoDiverse computes an optimal 2-diverse suppression generalization
// of a microdata table with exactly two distinct sensitive values, using the
// reduction to minimum-cost perfect bipartite matching described in Section 4:
// the two sensitive-value classes form the two vertex sets, the cost of an
// edge (t1, t2) is the number of stars required to put t1 and t2 in the same
// QI-group, and a minimum perfect matching yields the optimal partition into
// groups of size two.
//
// It returns the optimal partition and its number of stars. An error is
// returned if the table does not have exactly two sensitive values or the two
// classes differ in size (in which case the table is not 2-eligible).
func OptimalTwoDiverse(t *table.Table) (*generalize.Partition, int, error) {
	var s1, s2 []int
	// va is the smaller of the two values; its rows form s1.
	va, distinct := -1, 0
	for v, c := range t.SACounts() {
		if c > 0 {
			if distinct == 0 {
				va = v
			}
			distinct++
		}
	}
	if distinct != 2 {
		return nil, 0, fmt.Errorf("matching: table has %d distinct sensitive values, need exactly 2", distinct)
	}
	for i, v := range t.SAView() {
		if v == va {
			s1 = append(s1, i)
		} else {
			s2 = append(s2, i)
		}
	}
	if len(s1) != len(s2) {
		return nil, 0, fmt.Errorf("matching: sensitive classes have sizes %d and %d; table is not 2-eligible", len(s1), len(s2))
	}
	n := len(s1)
	if n == 0 {
		return generalize.NewPartition(nil), 0, nil
	}
	// The two classes' QI codes are gathered per attribute into contiguous
	// buffers, so the O(n^2 d) cost loop compares flat arrays.
	d := t.Dimensions()
	c1 := make([][]int32, d)
	c2 := make([][]int32, d)
	for a := 0; a < d; a++ {
		col := t.Col(a)
		c1[a] = make([]int32, n)
		c2[a] = make([]int32, n)
		for i, r := range s1 {
			c1[a][i] = col[r]
		}
		for j, r := range s2 {
			c2[a][j] = col[r]
		}
	}
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			diff := 0
			for a := 0; a < d; a++ {
				if c1[a][i] != c2[a][j] {
					diff++
				}
			}
			// Each differing attribute costs two stars (one per tuple).
			cost[i][j] = float64(2 * diff)
		}
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		return nil, 0, err
	}
	groups := make([][]int, n)
	for i := 0; i < n; i++ {
		groups[i] = []int{s1[i], s2[assign[i]]}
	}
	return generalize.NewPartition(groups), int(total + 0.5), nil
}
