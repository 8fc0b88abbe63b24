// Package eligibility implements the privacy predicates of the paper:
// l-eligibility of a multiset of tuples (Definition 2), l-diversity of a
// partition/generalization, and k-anonymity for comparison.
package eligibility

import (
	"ldiv/internal/table"
)

// MaxFrequencyCounts returns the largest count in a dense sensitive-value
// histogram indexed by code (as produced by Table.SACounts): the "pillar
// height" h(S) of Section 5, and 0 for an empty slice.
func MaxFrequencyCounts(counts []int) int {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return max
}

// IsEligibleCounts reports whether a multiset with the given dense
// sensitive-value histogram (indexed by code) is l-eligible: at most |S|/l
// of the tuples share one sensitive value, i.e. |S| >= l * h(S) where |S| is
// the sum of the counts and h(S) their maximum, evaluated as h(S) <= |S|/l so
// an unbounded caller-supplied l cannot overflow the product. The empty
// multiset is l-eligible.
func IsEligibleCounts(counts []int, l int) bool {
	if l <= 1 {
		return true
	}
	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	return max <= total/l
}

// IsEligibleRows reports whether the multiset formed by the given rows of t
// is l-eligible. It histograms the rows against a dense count array; loops
// that check many groups of one table should hoist a table.SAGroupCounter
// and use IsEligibleGroup to reuse the array across groups.
func IsEligibleRows(t *table.Table, rows []int, l int) bool {
	if l <= 1 {
		return true
	}
	return IsEligibleGroup(t.SAGroupCounter(), rows, l)
}

// IsEligibleGroup reports whether the multiset formed by the given rows is
// l-eligible, histogramming them with the caller's reusable counter:
// |S| >= l * h(S), where |S| is the number of rows and h(S) the largest
// sensitive-value frequency among them.
func IsEligibleGroup(c *table.SAGroupCounter, rows []int, l int) bool {
	if l <= 1 {
		return true
	}
	return c.MaxCount(rows) <= len(rows)/l
}

// IsEligibleTable reports whether the whole table is l-eligible. By Lemma 1
// (monotonicity) this is a necessary and sufficient condition for an
// l-diverse generalization of the table to exist.
func IsEligibleTable(t *table.Table, l int) bool {
	return IsEligibleCounts(t.SACounts(), l)
}

// IsLDiversePartition reports whether every group of the partition (given as
// row-index groups covering the table) is l-eligible, i.e. whether the
// generalization the partition defines is l-diverse. One dense counter is
// reused across all groups.
func IsLDiversePartition(t *table.Table, groups [][]int, l int) bool {
	if l <= 1 {
		return true
	}
	c := t.SAGroupCounter()
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if !IsEligibleGroup(c, g, l) {
			return false
		}
	}
	return true
}

// IsKAnonymousPartition reports whether every non-empty group of the
// partition has at least k rows.
func IsKAnonymousPartition(groups [][]int, k int) bool {
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		if len(g) < k {
			return false
		}
	}
	return true
}

// MaxEligibleL returns the largest l for which the table is l-eligible
// (n / h(T) using integer division), or 0 for an empty table. Anonymization
// with any l up to this value is feasible.
func MaxEligibleL(t *table.Table) int {
	h := MaxFrequencyCounts(t.SACounts())
	if h == 0 {
		return 0
	}
	return t.Len() / h
}

// CoversTable reports whether the groups form a partition of the table's rows:
// every row index in [0, n) appears in exactly one group.
func CoversTable(t *table.Table, groups [][]int) bool {
	seen := make([]bool, t.Len())
	count := 0
	for _, g := range groups {
		for _, r := range g {
			if r < 0 || r >= t.Len() || seen[r] {
				return false
			}
			seen[r] = true
			count++
		}
	}
	return count == t.Len()
}
