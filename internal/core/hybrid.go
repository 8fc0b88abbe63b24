package core

import (
	"fmt"

	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

// Refiner re-partitions the residue set R into smaller l-eligible groups so
// that fewer QI values need to be suppressed. It is the pluggable heuristic
// of the TP+ hybrid (Section 5.6 / 6.1); the Hilbert suppressor is the
// default implementation used in the paper's experiments.
type Refiner interface {
	// PartitionRows partitions the given row indices of t into groups, each
	// of which must be l-eligible. Every input row must appear in exactly one
	// output group. rows is the result's Residue and must not be modified.
	PartitionRows(t *table.Table, rows []int, l int) ([][]int, error)
}

// HybridAnonymizer is TP+: it runs TP and then applies a heuristic refiner to
// the residue set R, which can only decrease the number of stars while
// preserving the O(l·d) approximation guarantee.
type HybridAnonymizer struct {
	L       int
	Refiner Refiner
	// Workers bounds the TP core's data-parallel stages, exactly as
	// Anonymizer.Workers does; the refiner itself runs serially.
	Workers int
}

// NewHybridAnonymizer returns a TP+ anonymizer for the given l and refiner.
func NewHybridAnonymizer(l int, r Refiner) *HybridAnonymizer {
	return &HybridAnonymizer{L: l, Refiner: r}
}

// Anonymize runs TP and refines the residue. The refined residue partition is
// validated: if the refiner returns an invalid partition (rows missing or a
// group that is not l-eligible), the residue is kept as a single group and an
// error is returned alongside the plain-TP result.
func (h *HybridAnonymizer) Anonymize(t *table.Table) (*Result, error) {
	base := &Anonymizer{L: h.L, Workers: h.Workers}
	res, err := base.Anonymize(t)
	if err != nil {
		return nil, err
	}
	return h.refine(t, res)
}

// AnonymizeGroups is like Anonymize but starts from a caller-supplied
// partition into QI-groups (see Anonymizer.AnonymizeGroups).
func (h *HybridAnonymizer) AnonymizeGroups(t *table.Table, groups [][]int) (*Result, error) {
	base := &Anonymizer{L: h.L, Workers: h.Workers}
	res, err := base.AnonymizeGroups(t, groups)
	if err != nil {
		return nil, err
	}
	return h.refine(t, res)
}

func (h *HybridAnonymizer) refine(t *table.Table, res *Result) (*Result, error) {
	if h.Refiner == nil || len(res.Residue) == 0 {
		return res, nil
	}
	groups, err := h.Refiner.PartitionRows(t, res.Residue, h.L)
	if err != nil {
		return res, fmt.Errorf("core: residue refinement failed, keeping single residue group: %w", err)
	}
	if err := validateResiduePartition(t, res.Residue, groups, h.L); err != nil {
		return res, fmt.Errorf("core: refiner returned an invalid residue partition, keeping single residue group: %w", err)
	}
	// Order the refined groups as result orders kept groups: by first row,
	// rows ascending, read off an owner array in one sweep.
	owner := make([]int32, t.Len())
	sizes := make([]int, len(groups))
	id := int32(0) // 1 + the index of the group being marked
	for g, rows := range groups {
		sizes[g] = len(rows)
		id++
		for _, r := range rows {
			owner[r] = id
		}
	}
	refined := *res
	refined.ResidueGroups, _ = assemble(owner, sizes, 0)
	return &refined, nil
}

// validateResiduePartition checks that groups is a partition of rows and that
// each group is l-eligible. Row membership and the per-group sensitive
// histograms use dense arrays indexed by row and SA code respectively (rows
// are bounded by t.Len(), codes by t.SADomainSize()), with the histogram
// scratch cleared between groups by undoing only the touched entries.
func validateResiduePartition(t *table.Table, rows []int, groups [][]int, l int) error {
	want := make([]bool, t.Len())
	for _, r := range rows {
		want[r] = true
	}
	seen := make([]bool, t.Len())
	covered := 0
	counts := make([]int, t.SADomainSize())
	sa := t.SAView()
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		for _, r := range g {
			if r < 0 || r >= t.Len() || !want[r] {
				return fmt.Errorf("group %d contains row %d which is not part of the residue", gi, r)
			}
			if seen[r] {
				return fmt.Errorf("row %d appears in more than one group", r)
			}
			seen[r] = true
			covered++
			counts[sa[r]]++
		}
		eligible := eligibility.IsEligibleCounts(counts, l)
		for _, r := range g {
			counts[sa[r]] = 0
		}
		if !eligible {
			return fmt.Errorf("group %d is not %d-eligible", gi, l)
		}
	}
	if covered != len(rows) {
		return fmt.Errorf("partition covers %d of %d residue rows", covered, len(rows))
	}
	return nil
}
