package hilbert

import (
	"cmp"
	"fmt"
	"slices"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// Suppressor is the Hilbert l-diversity suppression baseline: tuples are
// sorted along a d-dimensional Hilbert curve over the QI domain grid, and
// minimal l-eligible QI-groups are carved out of the sorted order with a
// frequency-aware look-ahead. Groups are published with suppression
// (Definition 1), as in Section 6.1 of the paper.
type Suppressor struct {
	// L is the diversity parameter.
	L int
	// LookAhead bounds how far past the scan cursor the group builder may
	// search for a tuple with a helpful sensitive value. Zero selects a
	// default proportional to L.
	LookAhead int
}

// NewSuppressor returns a Hilbert suppressor for the given l.
func NewSuppressor(l int) *Suppressor { return &Suppressor{L: l} }

// Anonymize partitions the whole table into l-eligible QI-groups.
func (s *Suppressor) Anonymize(t *table.Table) (*generalize.Partition, error) {
	rows := make([]int, t.Len())
	for i := range rows {
		rows[i] = i
	}
	groups, err := s.PartitionRows(t, rows, s.L)
	if err != nil {
		return nil, err
	}
	return generalize.NewPartition(groups), nil
}

// PartitionRows partitions the given rows into l-eligible groups. It also
// satisfies the core.Refiner interface so that a Suppressor can serve as the
// residue refiner of TP+.
func (s *Suppressor) PartitionRows(t *table.Table, rows []int, l int) ([][]int, error) {
	if l < 1 {
		return nil, fmt.Errorf("hilbert: invalid l = %d", l)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if l <= 1 {
		// No diversity requirement: singleton groups retain everything.
		out := make([][]int, len(rows))
		for i, r := range rows {
			out[i] = []int{r}
		}
		return out, nil
	}
	counter := t.SAGroupCounter()
	if !eligibility.IsEligibleGroup(counter, rows, l) {
		return nil, fmt.Errorf("hilbert: row set is not %d-eligible", l)
	}

	order, err := s.sortByCurve(t, rows)
	if err != nil {
		return nil, err
	}
	groups := s.carveGroups(t, order, l)

	// Repair: the trailing group may be ineligible; merge backwards until the
	// tail is eligible (the union of everything is eligible, so this ends).
	for len(groups) > 1 {
		last := groups[len(groups)-1]
		if eligibility.IsEligibleGroup(counter, last, l) {
			break
		}
		merged := append(groups[len(groups)-2], last...)
		groups = groups[:len(groups)-2]
		groups = append(groups, merged)
	}
	if len(groups) > 0 && !eligibility.IsEligibleGroup(counter, groups[len(groups)-1], l) {
		return nil, fmt.Errorf("hilbert: internal error: could not form %d-eligible groups", l)
	}
	return groups, nil
}

// sortByCurve returns the rows ordered by their Hilbert index (ties broken by
// row index for determinism).
func (s *Suppressor) sortByCurve(t *table.Table, rows []int) ([]int, error) {
	d := t.Dimensions()
	bits := 1
	for j := 0; j < d; j++ {
		if b := BitsFor(t.Schema().QI(j).Cardinality()); b > bits {
			bits = b
		}
	}
	// Degrade precision if the index would not fit into 64 bits; locality is
	// preserved on the high-order bits.
	shift := 0
	for d*bits > 64 {
		bits--
		shift++
	}
	// Coordinates are gathered column by column — one linear pass per QI
	// attribute over its contiguous column — into a row-major matrix, then
	// encoded per row.
	coords := make([]uint32, d*len(rows))
	for j := 0; j < d; j++ {
		col := t.Col(j)
		for i, r := range rows {
			coords[i*d+j] = uint32(int(col[r]) >> uint(shift))
		}
	}
	// Hilbert key, then row index, is a total order, so an unstable sort
	// gives the one result.
	type keyed struct {
		key uint64
		row int
	}
	order := make([]keyed, len(rows))
	for i, r := range rows {
		k, err := Encode(coords[i*d:(i+1)*d], bits)
		if err != nil {
			return nil, err
		}
		order[i] = keyed{k, r}
	}
	slices.SortFunc(order, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	sorted := make([]int, len(rows))
	for i, o := range order {
		sorted[i] = o.row
	}
	return sorted, nil
}

// carveGroups sweeps the sorted rows and emits near-minimal l-eligible groups.
// When the next row in curve order would only deepen the group's pillar, the
// builder looks ahead a bounded distance for a row with a different sensitive
// value, trading a little locality for much smaller groups.
func (s *Suppressor) carveGroups(t *table.Table, sorted []int, l int) [][]int {
	window := s.LookAhead
	if window <= 0 {
		window = 8 * l
	}
	used := make([]bool, len(sorted))
	var groups [][]int

	// The SA code of each sorted position, gathered once so the carving loop
	// reads a flat array, and one dense histogram reused across groups (only
	// the values a group touched are re-zeroed between groups).
	sa := t.SAView()
	saSorted := make([]int32, len(sorted))
	for i, r := range sorted {
		saSorted[i] = int32(sa[r])
	}
	hist := make([]int32, t.SADomainSize())
	var touched []int32

	cursor := 0
	advance := func() {
		for cursor < len(sorted) && used[cursor] {
			cursor++
		}
	}
	advance()

	for cursor < len(sorted) {
		var group []int
		for _, v := range touched {
			hist[v] = 0
		}
		touched = touched[:0]
		size, height := 0, 0

		addAt := func(pos int) {
			used[pos] = true
			group = append(group, sorted[pos])
			v := saSorted[pos]
			if hist[v] == 0 {
				touched = append(touched, v)
			}
			hist[v]++
			if int(hist[v]) > height {
				height = int(hist[v])
			}
			size++
		}

		for {
			advance()
			if cursor >= len(sorted) {
				break
			}
			// Prefer the next row unless it would deepen the pillar while a
			// nearby row would not.
			pick := cursor
			if size > 0 && int(hist[saSorted[cursor]])+1 > height {
				for off, scanned := 1, 0; cursor+off < len(sorted) && scanned < window; off++ {
					pos := cursor + off
					if used[pos] {
						continue
					}
					scanned++
					if int(hist[saSorted[pos]])+1 <= height {
						pick = pos
						break
					}
				}
			}
			addAt(pick)
			if size >= l*height {
				break
			}
		}
		if len(group) > 0 {
			groups = append(groups, group)
		}
		advance()
	}
	return groups
}
