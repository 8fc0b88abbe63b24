package generalize

// Coverage indexes which groups of a release cover each QI vector, for the
// consumers that match the microdata's QI vectors against a release (the
// KL-divergence, the linking attack).
//
// An exact group publishes every QI value exactly and agrees with each of its
// rows, so it covers only its own QI vector: its rows are read off ExactRow.
// Every other group is general and gets one bit, in partition order, in a
// bitset row per (QI column j, code x) that is set when the group's cell j
// covers x. The general groups covering a QI vector are the AND of its d rows.
// The index holds Σ|dom_j| rows of ⌈K/64⌉ words for K general groups.
type Coverage struct {
	// ExactRow marks the rows of the exact groups.
	ExactRow []bool
	// General lists the general groups as indices into Partition.Groups, in
	// partition order; bit k of a coverage mask stands for General[k].
	General []int

	words int
	base  []int    // the rows of column j are base[j] .. base[j+1]-1
	bits  []uint64 // row i occupies bits[i*words : (i+1)*words]
}

// Coverage builds the coverage index of the release. Cell codes outside the
// attribute's domain [0, Cardinality) cover nothing, and an exact cell that
// disagrees with its group's rows makes the group general, so a recoding
// that does not cover the microdata shows as a QI vector no group covers.
func (g *Generalized) Coverage() *Coverage {
	t := g.Source
	sch := t.Schema()
	d := t.Dimensions()
	cols := make([][]int32, d)
	for j := range cols {
		cols[j] = t.Col(j)
	}
	c := &Coverage{ExactRow: make([]bool, t.Len()), base: make([]int, d+1)}
	for gi, rows := range g.Partition.Groups {
		if !exactGroup(g.Cells[rows[0]], rows, cols) {
			c.General = append(c.General, gi)
			continue
		}
		for _, r := range rows {
			c.ExactRow[r] = true
		}
	}
	c.words = (len(c.General) + 63) / 64
	for j := 0; j < d; j++ {
		c.base[j+1] = c.base[j] + sch.QI(j).Cardinality()
	}
	c.bits = make([]uint64, c.base[d]*c.words)
	for k, gi := range c.General {
		word, bit := k/64, uint64(1)<<(k%64)
		for j, cell := range g.Cells[g.Partition.Groups[gi][0]] {
			row, card := c.base[j], c.base[j+1]-c.base[j]
			set := func(x int) {
				if x >= 0 && x < card {
					c.bits[(row+x)*c.words+word] |= bit
				}
			}
			switch cell.Kind {
			case CellExact:
				set(cell.Value)
			case CellStar:
				for x := 0; x < card; x++ {
					set(x)
				}
			default:
				for _, x := range cell.Set {
					set(x)
				}
			}
		}
	}
	return c
}

// exactGroup reports whether every cell is exact and equals the value of
// every row of the group.
func exactGroup(cells []Cell, rows []int, cols [][]int32) bool {
	for j, c := range cells {
		if c.Kind != CellExact {
			return false
		}
		for _, r := range rows {
			if int(cols[j][r]) != c.Value {
				return false
			}
		}
	}
	return true
}

// Words returns the length of a coverage mask: ⌈len(General)/64⌉.
func (c *Coverage) Words() int { return c.words }

// Covering sets mask (of length Words) to the general groups whose cells
// cover the QI vector qi, whose codes lie in their attributes' domains as a
// table's do: bit k is set when General[k] covers it.
func (c *Coverage) Covering(mask []uint64, qi []int) {
	for j, x := range qi {
		row := c.bits[(c.base[j]+x)*c.words:][:c.words]
		if j == 0 {
			copy(mask, row)
			continue
		}
		for w := range mask {
			mask[w] &= row[w]
		}
	}
}
