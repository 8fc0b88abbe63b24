package generalize_test

import (
	"testing"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// checkCoverage compares the coverage index of g with Cell.Covers: a row is
// exact exactly when its group's cells are all exact and equal its values, and
// for every QI vector of the source the mask holds exactly the general groups
// whose cells all cover it.
func checkCoverage(t *testing.T, name string, g *generalize.Generalized) {
	t.Helper()
	src := g.Source
	cov := g.Coverage()
	for gi, rows := range g.Partition.Groups {
		for _, r := range rows {
			exact := true
			for j, c := range g.Cells[r] {
				exact = exact && c.Kind == generalize.CellExact && c.Value == src.QIAt(r, j)
			}
			if cov.ExactRow[r] != exact {
				t.Fatalf("%s: group %d row %d: ExactRow %v, want %v", name, gi, r, cov.ExactRow[r], exact)
			}
		}
	}
	mask := make([]uint64, cov.Words())
	qi := make([]int, src.Dimensions())
	for _, rows := range src.GroupByQI() {
		for j := range qi {
			qi[j] = src.QIAt(rows[0], j)
		}
		cov.Covering(mask, qi)
		for k, gi := range cov.General {
			want := true
			for j, c := range g.Cells[g.Partition.Groups[gi][0]] {
				want = want && c.Covers(qi[j])
			}
			if got := mask[k/64]>>(k%64)&1 == 1; got != want {
				t.Fatalf("%s: QI %v, general group %d (bit %d): covered %v, want %v", name, qi, gi, k, got, want)
			}
		}
	}
}

// TestCoverageMatchesCellCovers checks the index against Cell.Covers on
// every kind of release: Suppress, MultiDimensional, TDS and Incognito.
func TestCoverageMatchesCellCovers(t *testing.T) {
	for name, g := range releases(t) {
		checkCoverage(t, name, g)
	}
}

// TestCoverageSkipsOutOfDomainCodes builds recodings whose exact and set cells
// carry codes outside [0, Cardinality): the index must skip them rather than
// index out of range, and a group whose exact cells disagree with its rows is
// general, not exact.
func TestCoverageSkipsOutOfDomainCodes(t *testing.T) {
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 3), table.NewIntegerAttribute("B", 2)},
		table.NewIntegerAttribute("S", 2)))
	for _, r := range [][3]int{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {2, 0, 0}, {2, 1, 1}} {
		tbl.MustAppendRow([]int{r[0], r[1]}, r[2])
	}
	exact := func(v int) generalize.Cell { return generalize.Cell{Kind: generalize.CellExact, Value: v} }
	set := func(vs ...int) generalize.Cell { return generalize.Cell{Kind: generalize.CellSet, Set: vs} }
	rows := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	for name, cellOf := range map[string][][]generalize.Cell{
		"exact": {{exact(0), exact(-1), exact(9)}, {exact(0), exact(1)}},
		"set":   {{set(-2, 0), set(1, 2, 3), set(1, 2, 3)}, {exact(0), set(0, 1, 2)}},
	} {
		g, err := generalize.Recode(tbl, rows, cellOf)
		if err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, name, g)
	}
}
