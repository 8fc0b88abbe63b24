package eligibility_test

import (
	"testing"

	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

// This external test exercises the eligibility predicates on the degenerate
// inputs the scenario corpus is built around: empty tables, trivial l, l
// beyond the sensitive domain, and partitions of one-row groups. It lives in
// package eligibility_test so it can generate its tables through
// internal/dataset (which imports eligibility) without a cycle.

func emptyTable() *table.Table {
	return table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 10)), 0).Build()
}

func TestEmptyTableEligibility(t *testing.T) {
	empty := emptyTable()
	for _, l := range []int{1, 2, 10, 1000} {
		if !eligibility.IsEligibleTable(empty, l) {
			t.Errorf("empty table not %d-eligible; the empty multiset is eligible by definition", l)
		}
		if !eligibility.IsEligibleRows(empty, nil, l) {
			t.Errorf("empty row set not %d-eligible", l)
		}
		if !eligibility.IsLDiversePartition(empty, nil, l) {
			t.Errorf("empty partition not %d-diverse", l)
		}
		if !eligibility.IsLDiversePartition(empty, [][]int{{}}, l) {
			t.Errorf("partition of one empty group not %d-diverse", l)
		}
	}
	if got := eligibility.MaxEligibleL(empty); got != 0 {
		t.Errorf("MaxEligibleL(empty) = %d, want 0", got)
	}
}

// TestTrivialLIsAlwaysEligible pins l <= 1 as universally satisfied: the
// paper's predicates only constrain anything from l = 2 up, and the corpus
// edge families must not change that.
func TestTrivialLIsAlwaysEligible(t *testing.T) {
	for _, fam := range dataset.Families() {
		tab, err := dataset.Generate(fam, dataset.Config{Rows: 120, Seed: 9})
		if err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
		groups := tab.GroupByQI()
		for _, l := range []int{1, 0, -5} {
			if !eligibility.IsEligibleTable(tab, l) {
				t.Errorf("family %s not eligible at trivial l=%d", fam, l)
			}
			if !eligibility.IsLDiversePartition(tab, groups, l) {
				t.Errorf("family %s partition not diverse at trivial l=%d", fam, l)
			}
		}
	}
}

// TestLBeyondSADomain pins that no non-empty table is eligible past its
// sensitive-domain size: with D distinct values, some value occurs at least
// n/D times, so MaxEligibleL <= D. The distinct-sa family sits exactly on the
// boundary (domain = n, every l up to n feasible), and sa-card-l sits on a
// much smaller one (domain = l).
func TestLBeyondSADomain(t *testing.T) {
	for _, fam := range dataset.Families() {
		tab, err := dataset.Generate(fam, dataset.Config{Rows: 120, Seed: 9})
		if err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
		domain := tab.SADomainSize()
		maxL := eligibility.MaxEligibleL(tab)
		if maxL > domain {
			t.Errorf("family %s: MaxEligibleL %d exceeds SA domain %d", fam, maxL, domain)
		}
		for _, l := range []int{domain + 1, 2 * domain} {
			if eligibility.IsEligibleTable(tab, l) {
				t.Errorf("family %s eligible at l=%d beyond SA domain %d", fam, l, domain)
			}
		}
		if !eligibility.IsEligibleTable(tab, maxL) {
			t.Errorf("family %s not eligible at its own MaxEligibleL %d", fam, maxL)
		}
		if eligibility.IsEligibleTable(tab, maxL+1) {
			t.Errorf("family %s eligible past MaxEligibleL %d", fam, maxL)
		}
	}

	distinct, err := dataset.Generate("distinct-sa", dataset.Config{Rows: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if got := eligibility.MaxEligibleL(distinct); got != 120 {
		t.Errorf("distinct-sa MaxEligibleL = %d, want 120 (every row its own value)", got)
	}
}

// TestSingleRowGroups pins the one-row-groups edge: a partition of singleton
// groups satisfies no l >= 2 (each group's lone sensitive value is 100% of
// it), even though the table as a whole is eligible — the gap between table
// eligibility and partition diversity that forces algorithms to merge groups.
func TestSingleRowGroups(t *testing.T) {
	tab, err := dataset.Generate("one-row-groups", dataset.Config{Rows: 120, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	groups := tab.GroupByQI()
	if len(groups) != tab.Len() {
		t.Fatalf("one-row-groups produced %d groups for %d rows", len(groups), tab.Len())
	}
	if !eligibility.IsEligibleTable(tab, 4) {
		t.Error("one-row-groups table itself should be 4-eligible")
	}
	if eligibility.IsLDiversePartition(tab, groups, 2) {
		t.Error("partition of singleton groups passed 2-diversity")
	}
	if !eligibility.IsLDiversePartition(tab, groups, 1) {
		t.Error("singleton groups failed trivial l=1")
	}
	c := tab.SAGroupCounter()
	for _, g := range groups[:5] {
		if eligibility.IsEligibleGroup(c, g, 2) {
			t.Errorf("singleton group %v passed 2-eligibility", g)
		}
		if !eligibility.IsEligibleRows(tab, g, 1) {
			t.Errorf("singleton group %v failed l=1", g)
		}
	}
}

// TestDensePathAgreesWithGroupPredicates cross-checks the two histogram
// paths on every corpus family: the dense whole-table fast path
// (IsEligibleCounts over Table.SACounts) against the auditor's group-level
// predicate (GroupFrequencyOK over SAGroupCounter histograms), per group and
// for the table as one group, across the l range the corpus sweeps.
func TestDensePathAgreesWithGroupPredicates(t *testing.T) {
	for _, fam := range dataset.Families() {
		tab, err := dataset.Generate(fam, dataset.Config{Rows: 180, Seed: 11})
		if err != nil {
			t.Fatalf("family %s: %v", fam, err)
		}
		all := make([]int, tab.Len())
		for i := range all {
			all[i] = i
		}
		c := tab.SAGroupCounter()
		groups := tab.GroupByQI()
		for l := 1; l <= 6; l++ {
			fast := eligibility.IsEligibleCounts(tab.SACounts(), l)
			counts, vals := c.Count(all)
			slow := eligibility.GroupFrequencyOK(counts, vals, tab.Len(), l)
			if fast != slow {
				t.Errorf("family %s l=%d: IsEligibleCounts=%v but GroupFrequencyOK=%v on the whole table",
					fam, l, fast, slow)
			}
			if fast != eligibility.IsEligibleTable(tab, l) {
				t.Errorf("family %s l=%d: IsEligibleCounts disagrees with IsEligibleTable", fam, l)
			}
			for gi, g := range groups {
				gFast := eligibility.IsEligibleGroup(c, g, l)
				gCounts, gVals := c.Count(g)
				gSlow := eligibility.GroupFrequencyOK(gCounts, gVals, len(g), l)
				if gFast != gSlow {
					t.Errorf("family %s l=%d group %d: IsEligibleGroup=%v but GroupFrequencyOK=%v",
						fam, l, gi, gFast, gSlow)
				}
			}
		}
	}
}
