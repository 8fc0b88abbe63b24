package core

import (
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// Result is the outcome of a TP (or TP+) run: the surviving QI-groups (which
// retain their exact QI values and therefore contribute no stars), the
// residue set R of removed tuples, and bookkeeping about which phase
// terminated the run.
type Result struct {
	// L is the diversity parameter the run enforced.
	L int
	// KeptGroups are the QI-groups that survive with their QI values intact.
	// Each group is l-eligible and all of its rows share identical QI values.
	KeptGroups [][]int
	// Residue is the set R of removed (suppressed) tuples, l-eligible as a
	// whole. In plain TP it is published as a single QI-group; TP+ refines it.
	Residue []int
	// ResidueGroups is the partition of the residue used in the published
	// table. For plain TP it is a single group, the Residue slice itself (or
	// empty if the residue is empty); TP+ replaces it with the refiner's
	// partition.
	ResidueGroups [][]int
	// TerminationPhase records the phase (1, 2 or 3) whose termination test
	// ended the run. Phase 1 termination implies an optimal solution to tuple
	// minimization (Corollary 1); phase 2 adds at most l-1 tuples
	// (Corollary 3); phase 3 yields the l-approximation (Theorem 3).
	TerminationPhase int
	// Phase3Rounds is the number of phase-three rounds executed (0 when the
	// run ended earlier).
	Phase3Rounds int
	// RemovedByPhase[p] is the number of tuples moved to R during phase p
	// (indices 1..3; index 0 is unused).
	RemovedByPhase [4]int
}

// SuppressedTuples returns |R|, the objective value of tuple minimization.
func (r *Result) SuppressedTuples() int { return len(r.Residue) }

// Partition returns the published partition: every kept group plus the
// residue groups, empty groups dropped. The partition shares the result's
// row slices instead of copying them.
func (r *Result) Partition() *generalize.Partition {
	groups := make([][]int, 0, len(r.KeptGroups)+len(r.ResidueGroups))
	for _, g := range r.KeptGroups {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	for _, g := range r.ResidueGroups {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return &generalize.Partition{Groups: groups}
}

// Generalize applies suppression (Definition 1) to the result's partition.
func (r *Result) Generalize(t *table.Table) (*generalize.Generalized, error) {
	return generalize.Suppress(t, r.Partition())
}

// Stars returns the number of stars in the suppression generalization of the
// result's partition, the objective of star minimization (Problem 1). t must
// be the table r was computed from; it panics otherwise.
func (r *Result) Stars(t *table.Table) int {
	g, err := r.Generalize(t)
	if err != nil {
		panic(err)
	}
	return g.Stars()
}

// residueOwner marks a row of R in an owner array (see assemble).
const residueOwner = -1

// assemble reads groups back off an owner array in one sweep over the rows.
// owner[r] is 0 for a row in no group, residueOwner for a row of R, and g+1
// for a row of group g, which has sizes[g] rows. It returns the groups that
// own a row, ordered by their first row with their rows ascending, and the
// rows of R ascending (nR of them; never nil). That is the order sorting
// each group and then the groups by first row would give, for any input
// grouping, at O(n) instead of a sort.
func assemble(owner []int32, sizes []int, nR int) (groups [][]int, residue []int) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	arena := make([]int, total)
	// slot[g] is 1 + group g's output index, 0 until its first row is seen.
	slot := make([]int32, len(sizes))
	if len(sizes) > 0 {
		groups = make([][]int, 0, len(sizes))
	}
	residue = make([]int, 0, nR)
	base := 0
	for r, o := range owner {
		switch {
		case o == residueOwner:
			residue = append(residue, r)
		case o > 0:
			g := o - 1
			s := slot[g]
			if s == 0 {
				// Capacity-capped, so an append to one group cannot
				// bleed into the next.
				groups = append(groups, arena[base:base:base+sizes[g]])
				base += sizes[g]
				s = int32(len(groups))
				slot[g] = s
			}
			groups[s-1] = append(groups[s-1], r)
		}
	}
	return groups, residue
}
