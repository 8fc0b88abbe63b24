// Package bruteforce contains exact (exponential-time) reference solvers for
// the two optimization problems of the paper on tiny inputs. They exist so
// tests can verify the approximation guarantees of TP empirically:
//
//   - OptimalStars solves star minimization (Problem 1) by enumerating every
//     partition of the rows into l-eligible QI-groups.
//   - OptimalSuppressedTuples solves tuple minimization (Problem 2) by
//     enumerating every subset of rows to remove.
//
// Both are intended for n up to roughly a dozen rows.
package bruteforce

import (
	"fmt"
	"math"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// MaxRows is the largest table size the brute-force solvers accept.
const MaxRows = 14

// OptimalStars returns the minimum number of stars over all l-diverse
// suppression generalizations of t, together with one optimal partition.
// It returns an error if t has more than MaxRows rows or is not l-eligible.
func OptimalStars(t *table.Table, l int) (int, *generalize.Partition, error) {
	n := t.Len()
	if n > MaxRows {
		return 0, nil, fmt.Errorf("bruteforce: table has %d rows, limit is %d", n, MaxRows)
	}
	if !eligibility.IsEligibleTable(t, l) {
		return 0, nil, fmt.Errorf("bruteforce: table is not %d-eligible", l)
	}
	best := math.MaxInt
	var bestGroups [][]int

	// Enumerate set partitions with the standard restricted-growth encoding.
	assign := make([]int, n)
	var rec func(i, maxBlock int)
	rec = func(i, maxBlock int) {
		if i == n {
			groups := make([][]int, maxBlock)
			for r, b := range assign {
				groups[b] = append(groups[b], r)
			}
			for _, g := range groups {
				if !eligibility.IsEligibleRows(t, g, l) {
					return
				}
			}
			g, err := generalize.Suppress(t, generalize.NewPartition(groups))
			if err != nil {
				panic(err) // groups partition the rows by construction
			}
			if stars := g.Stars(); stars < best {
				best = stars
				bestGroups = groups
			}
			return
		}
		for b := 0; b < maxBlock; b++ {
			assign[i] = b
			rec(i+1, maxBlock)
		}
		assign[i] = maxBlock
		rec(i+1, maxBlock+1)
	}
	if n > 0 {
		assign[0] = 0
		rec(1, 1)
	} else {
		best = 0
	}
	if best == math.MaxInt {
		return 0, nil, fmt.Errorf("bruteforce: no %d-diverse partition exists", l)
	}
	return best, generalize.NewPartition(bestGroups), nil
}

// OptimalSuppressedTuples solves tuple minimization exactly: it returns the
// minimum number of tuples that must be removed from the QI-groups of t
// (groups of identical QI values) so that every group and the removed set are
// l-eligible. It also returns one optimal removed set (row indices).
func OptimalSuppressedTuples(t *table.Table, l int) (int, []int, error) {
	n := t.Len()
	if n > MaxRows {
		return 0, nil, fmt.Errorf("bruteforce: table has %d rows, limit is %d", n, MaxRows)
	}
	if !eligibility.IsEligibleTable(t, l) {
		return 0, nil, fmt.Errorf("bruteforce: table is not %d-eligible", l)
	}
	groups := t.GroupByQI()
	groupOf := make([]int, n)
	for gi, g := range groups {
		for _, r := range g {
			groupOf[r] = gi
		}
	}
	best := math.MaxInt
	var bestRemoved []int
	for mask := 0; mask < (1 << uint(n)); mask++ {
		removedCount := popcount(mask)
		if removedCount >= best {
			continue
		}
		// Histograms of what remains per group and of the removed set.
		removedHist := make([]int, t.SADomainSize())
		keptHists := make([][]int, len(groups))
		for gi := range groups {
			keptHists[gi] = make([]int, t.SADomainSize())
		}
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				removedHist[t.SAValue(r)]++
			} else {
				keptHists[groupOf[r]][t.SAValue(r)]++
			}
		}
		ok := eligibility.IsEligibleCounts(removedHist, l)
		for gi := 0; ok && gi < len(groups); gi++ {
			if !eligibility.IsEligibleCounts(keptHists[gi], l) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		best = removedCount
		bestRemoved = bestRemoved[:0]
		for r := 0; r < n; r++ {
			if mask&(1<<uint(r)) != 0 {
				bestRemoved = append(bestRemoved, r)
			}
		}
	}
	if best == math.MaxInt {
		return 0, nil, fmt.Errorf("bruteforce: no feasible removal exists")
	}
	out := make([]int, len(bestRemoved))
	copy(out, bestRemoved)
	return best, out, nil
}

func popcount(x int) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
