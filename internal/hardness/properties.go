package hardness

import (
	"fmt"

	"ldiv/internal/generalize"
)

// CheckProperty1 verifies Property 1 of the paper: every QI column of the
// constructed table has exactly three rows with value 0.
func (r *Reduction) CheckProperty1() error {
	d := r.Table.Dimensions()
	for i := 0; i < d; i++ {
		zeros := 0
		for j := 0; j < r.Table.Len(); j++ {
			if r.Table.QIAt(j, i) == 0 {
				zeros++
			}
		}
		if zeros != 3 {
			return fmt.Errorf("hardness: column A%d has %d zeros, want 3", i+1, zeros)
		}
	}
	return nil
}

// CheckConstruction verifies the two construction invariants of Section 4:
// T contains exactly m distinct sensitive values, and rows representing
// values from different 3DM domains never share a sensitive value.
func (r *Reduction) CheckConstruction() error {
	n := r.Instance.N
	distinct := make(map[int]bool)
	for _, u := range r.SAOfRow {
		distinct[u] = true
	}
	if len(distinct) != r.M {
		return fmt.Errorf("hardness: table has %d distinct sensitive values, want m = %d", len(distinct), r.M)
	}
	for a := 0; a < 3*n; a++ {
		for b := a + 1; b < 3*n; b++ {
			dimA, _ := valueOfRow(a+1, n)
			dimB, _ := valueOfRow(b+1, n)
			if dimA != dimB && r.SAOfRow[a] == r.SAOfRow[b] {
				return fmt.Errorf("hardness: rows %d and %d belong to different domains but share sensitive value %d", a, b, r.SAOfRow[a])
			}
		}
	}
	return nil
}

// CheckUsefulGroups verifies Properties 2 and 3 for a candidate 3-diverse
// partition: every useful QI-group (a group retaining at least one non-star
// value under suppression) has exactly three tuples, 3(d-1) stars and 3 zeros.
func (r *Reduction) CheckUsefulGroups(p *generalize.Partition) error {
	gen, err := generalize.Suppress(r.Table, p)
	if err != nil {
		return err
	}
	d := r.Table.Dimensions()
	for gi, g := range p.Groups {
		// Count stars and non-star values of the group.
		stars, nonStars, zeros := 0, 0, 0
		for _, row := range g {
			for j := 0; j < d; j++ {
				c := gen.Cells[row][j]
				if c.IsStar() {
					stars++
				} else {
					nonStars++
					if c.Value == 0 {
						zeros++
					}
				}
			}
		}
		if nonStars == 0 {
			continue // futile group
		}
		if nonStars != zeros {
			return fmt.Errorf("hardness: useful group %d retains a non-zero QI value (Property 2 violated)", gi)
		}
		if len(g) != 3 {
			return fmt.Errorf("hardness: useful group %d has %d tuples, want 3 (Property 3)", gi, len(g))
		}
		if stars != 3*(d-1) {
			return fmt.Errorf("hardness: useful group %d has %d stars, want %d (Property 3)", gi, stars, 3*(d-1))
		}
		if zeros != 3 {
			return fmt.Errorf("hardness: useful group %d has %d zeros, want 3 (Property 3)", gi, zeros)
		}
	}
	return nil
}
