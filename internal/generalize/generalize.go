// Package generalize implements partitions, QI-groups and the generalization
// operators of the paper: suppression (Definition 1), and the
// single-/multi-dimensional generalized views discussed in Section 2. It also
// provides the information-loss counters used by Problems 1 and 2
// (number of stars, number of suppressed tuples).
package generalize

import (
	"fmt"
	"sort"

	"ldiv/internal/table"
)

// Partition is a partition of a table's rows into QI-groups, each group being
// a list of row indices. A partition defines a generalization (Definition 1).
type Partition struct {
	Groups [][]int
}

// NewPartition builds a partition from row-index groups. Empty groups are
// dropped; group contents are copied.
func NewPartition(groups [][]int) *Partition {
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		cp := make([]int, len(g))
		copy(cp, g)
		out = append(out, cp)
	}
	return &Partition{Groups: out}
}

// Validate checks that the partition covers every row of t exactly once.
func (p *Partition) Validate(t *table.Table) error {
	seen := make([]bool, t.Len())
	count := 0
	for gi, g := range p.Groups {
		for _, r := range g {
			if r < 0 || r >= t.Len() {
				return fmt.Errorf("generalize: group %d references row %d outside [0,%d)", gi, r, t.Len())
			}
			if seen[r] {
				return fmt.Errorf("generalize: row %d appears in more than one group", r)
			}
			seen[r] = true
			count++
		}
	}
	if count != t.Len() {
		return fmt.Errorf("generalize: partition covers %d of %d rows", count, t.Len())
	}
	return nil
}

// Size returns the number of non-empty groups.
func (p *Partition) Size() int { return len(p.Groups) }

// CellKind distinguishes the three forms a published QI value can take.
type CellKind int

const (
	// CellExact publishes the original value.
	CellExact CellKind = iota
	// CellStar publishes a suppressed value ('*').
	CellStar
	// CellSet publishes a sub-domain (a set of possible values), as produced
	// by single- or multi-dimensional generalization.
	CellSet
)

// Cell is one published QI value.
type Cell struct {
	Kind  CellKind
	Value int   // valid when Kind == CellExact
	Set   []int // valid when Kind == CellSet; sorted, deduplicated codes
}

// IsStar reports whether the cell is suppressed.
func (c Cell) IsStar() bool { return c.Kind == CellStar }

// Width returns the number of original values the cell may represent, given
// the attribute's domain cardinality. Exact cells have width 1, stars the
// full domain, set cells the size of their sub-domain.
func (c Cell) Width(domainCardinality int) int {
	switch c.Kind {
	case CellExact:
		return 1
	case CellStar:
		return domainCardinality
	default:
		return len(c.Set)
	}
}

// Covers reports whether the cell can represent the original value code.
func (c Cell) Covers(code int) bool {
	switch c.Kind {
	case CellExact:
		return c.Value == code
	case CellStar:
		return true
	default:
		i := sort.SearchInts(c.Set, code)
		return i < len(c.Set) && c.Set[i] == code
	}
}

// Label renders the cell using the attribute's dictionary.
func (c Cell) Label(a *table.Attribute) string {
	switch c.Kind {
	case CellExact:
		return a.Label(c.Value)
	case CellStar:
		return "*"
	default:
		if len(c.Set) == a.Cardinality() {
			return "*"
		}
		s := "{"
		for i, v := range c.Set {
			if i > 0 {
				s += ","
			}
			s += a.Label(v)
		}
		return s + "}"
	}
}

// Generalized is a published table T*: the original rows (SA values retained)
// with each QI value replaced by a Cell, plus the partition that produced it.
// A release is constant within a QI-group, so its cells are stored once per
// group: Cells[row] is the cell slice of the row's group, shared by every row
// of that group and read-only.
type Generalized struct {
	Source    *table.Table
	Partition *Partition
	Cells     [][]Cell // Cells[row][qiColumn]; the rows of a group share one slice
}

// newGeneralized is the one constructor of a release: groupCells[gi] holds
// the cells of partition group gi, and every row of the group points at it.
func newGeneralized(t *table.Table, p *Partition, groupCells [][]Cell) *Generalized {
	cells := make([][]Cell, t.Len())
	for gi, rows := range p.Groups {
		for _, r := range rows {
			cells[r] = groupCells[gi]
		}
	}
	return &Generalized{Source: t, Partition: p, Cells: cells}
}

// cellsPerGroup allocates one d-cell slice per group out of a single backing
// array; capacities are capped so the slices never overlap.
func cellsPerGroup(groups, d int) [][]Cell {
	flat := make([]Cell, groups*d)
	out := make([][]Cell, groups)
	for gi := range out {
		out[gi] = flat[gi*d : (gi+1)*d : (gi+1)*d]
	}
	return out
}

// Suppress applies Definition 1: for each QI-group, an attribute keeps its
// value if all tuples in the group agree on it, and is replaced by a star
// otherwise. SA values are retained.
func Suppress(t *table.Table, p *Partition) (*Generalized, error) {
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	d := t.Dimensions()
	cells := cellsPerGroup(len(p.Groups), d)
	for j := 0; j < d; j++ {
		col := t.Col(j)
		for gi, g := range p.Groups {
			first := col[g[0]]
			cells[gi][j] = Cell{Kind: CellExact, Value: int(first)}
			for _, r := range g[1:] {
				if col[r] != first {
					cells[gi][j] = Cell{Kind: CellStar}
					break
				}
			}
		}
	}
	return newGeneralized(t, p, cells), nil
}

// MultiDimensional builds the multi-dimensional generalization induced by a
// partition: each attribute of each group publishes the minimal sub-domain
// (set of values) covering the group's original values. A single-valued
// sub-domain is published as an exact value (Section 6.2's observation that
// replacing every star with the group's value set never loses information
// relative to suppression).
func MultiDimensional(t *table.Table, p *Partition) (*Generalized, error) {
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	d := t.Dimensions()
	cells := cellsPerGroup(len(p.Groups), d)
	for j := 0; j < d; j++ {
		col := t.Col(j)
		// Dense membership scratch over the attribute's domain, re-zeroed per
		// group by undoing only the codes the group touched.
		seen := make([]bool, t.Schema().QI(j).Cardinality())
		var vals []int
		for gi, g := range p.Groups {
			for _, v := range vals {
				seen[v] = false
			}
			vals = vals[:0]
			for _, r := range g {
				if v := int(col[r]); !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			if len(vals) == 1 {
				cells[gi][j] = Cell{Kind: CellExact, Value: vals[0]}
			} else {
				set := make([]int, len(vals))
				copy(set, vals)
				sort.Ints(set)
				cells[gi][j] = Cell{Kind: CellSet, Set: set}
			}
		}
	}
	return newGeneralized(t, p, cells), nil
}

// Recode publishes a single-dimensional recoding: attribute j publishes
// cellOf[j][code] for value code, and groups holds the rows of each recoded
// signature (as table.GroupBySignature returns them), so a group's cells are
// read off its first row. The groups become the release's partition.
func Recode(t *table.Table, groups [][]int, cellOf [][]Cell) (*Generalized, error) {
	if len(cellOf) != t.Dimensions() {
		return nil, fmt.Errorf("generalize: %d recodings for %d QI attributes", len(cellOf), t.Dimensions())
	}
	p := &Partition{Groups: groups}
	if err := p.Validate(t); err != nil {
		return nil, err
	}
	cells := cellsPerGroup(len(groups), t.Dimensions())
	for j, recode := range cellOf {
		col := t.Col(j)
		for gi, rows := range groups {
			cells[gi][j] = recode[col[rows[0]]]
		}
	}
	return newGeneralized(t, p, cells), nil
}

// Stars returns the number of suppressed QI values in the published table
// (the objective of Problem 1). CellSet cells narrower than the full domain
// count as zero stars; a CellSet equal to the whole domain counts as one star
// for that position, matching the intuition that it retains no information.
func (g *Generalized) Stars() int {
	sch := g.Source.Schema()
	stars := 0
	for _, rows := range g.Partition.Groups {
		perRow := 0
		for j, c := range g.Cells[rows[0]] {
			if c.Kind == CellStar || c.Kind == CellSet && len(c.Set) >= sch.QI(j).Cardinality() {
				perRow++
			}
		}
		stars += perRow * len(rows)
	}
	return stars
}

// SuppressedTuples returns the number of rows with at least one star
// (the objective of Problem 2).
func (g *Generalized) SuppressedTuples() int {
	count := 0
	for _, rows := range g.Partition.Groups {
		for _, c := range g.Cells[rows[0]] {
			if c.Kind == CellStar {
				count += len(rows)
				break
			}
		}
	}
	return count
}

// StarsForPartition counts, without materializing cells, the number of stars
// the suppression generalization of partition p would contain.
func StarsForPartition(t *table.Table, p *Partition) int {
	stars := 0
	d := t.Dimensions()
	for j := 0; j < d; j++ {
		col := t.Col(j)
		for _, g := range p.Groups {
			first := col[g[0]]
			for _, r := range g[1:] {
				if col[r] != first {
					stars += len(g)
					break
				}
			}
		}
	}
	return stars
}

// String renders a human-readable listing of a generalized table, truncated
// after 50 rows.
func (g *Generalized) String() string {
	s := ""
	sch := g.Source.Schema()
	limit := g.Source.Len()
	const maxRows = 50
	if limit > maxRows {
		limit = maxRows
	}
	for i := 0; i < limit; i++ {
		for j := 0; j < g.Source.Dimensions(); j++ {
			s += g.Cells[i][j].Label(sch.QI(j)) + "\t"
		}
		s += g.Source.SALabel(i) + "\n"
	}
	if g.Source.Len() > maxRows {
		s += fmt.Sprintf("... (%d more rows)\n", g.Source.Len()-maxRows)
	}
	return s
}
