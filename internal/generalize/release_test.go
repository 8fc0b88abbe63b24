package generalize_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ldiv"
	"ldiv/internal/dataset"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// releases builds one release per producer of Generalized — Suppress and
// MultiDimensional of a random partition, TDS and Incognito — on a few
// dataset families.
func releases(t *testing.T) map[string]*generalize.Generalized {
	t.Helper()
	out := make(map[string]*generalize.Generalized)
	for _, family := range []string{"sal", "deep-taxonomy", "near-duplicate"} {
		tbl, err := dataset.Generate(family, dataset.Config{Rows: 300, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		groups := make([][]int, 40)
		for r := 0; r < tbl.Len(); r++ {
			gi := rng.Intn(len(groups))
			groups[gi] = append(groups[gi], r)
		}
		p := generalize.NewPartition(groups)
		if out[family+"/suppress"], err = generalize.Suppress(tbl, p); err != nil {
			t.Fatal(err)
		}
		if out[family+"/multidimensional"], err = generalize.MultiDimensional(tbl, p); err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"tds", "incognito"} {
			if out[family+"/"+algo], _, err = ldiv.AnonymizeWith(tbl, 2, algo); err != nil {
				t.Fatalf("%s %s: %v", family, algo, err)
			}
		}
	}
	return out
}

// TestGroupRowsShareCells checks the release representation: the rows of a
// group point at one cell slice, and that slice covers their QI values.
func TestGroupRowsShareCells(t *testing.T) {
	for name, g := range releases(t) {
		for gi, rows := range g.Partition.Groups {
			shared := g.Cells[rows[0]]
			for _, r := range rows {
				if &g.Cells[r][0] != &shared[0] {
					t.Fatalf("%s: row %d of group %d does not share the group's cell slice", name, r, gi)
				}
				for j, c := range shared {
					if !c.Covers(g.Source.QIAt(r, j)) {
						t.Fatalf("%s: group %d cell %d does not cover row %d", name, gi, j, r)
					}
				}
			}
		}
	}
}

// TestStarsMatchPerRowCount checks that the per-group Stars and
// SuppressedTuples equal a plain count over every row's cells.
func TestStarsMatchPerRowCount(t *testing.T) {
	for name, g := range releases(t) {
		sch := g.Source.Schema()
		stars, suppressed := 0, 0
		for _, row := range g.Cells {
			starred := false
			for j, c := range row {
				if c.IsStar() || c.Kind == generalize.CellSet && len(c.Set) >= sch.QI(j).Cardinality() {
					stars++
				}
				starred = starred || c.IsStar()
			}
			if starred {
				suppressed++
			}
		}
		if got := g.Stars(); got != stars {
			t.Errorf("%s: Stars = %d, per-row count %d", name, got, stars)
		}
		if got := g.SuppressedTuples(); got != suppressed {
			t.Errorf("%s: SuppressedTuples = %d, per-row count %d", name, got, suppressed)
		}
	}
}

// cellKey renders a row's published cells as a string: rows with equal keys
// are indistinguishable in the release.
func cellKey(row []generalize.Cell) string {
	var b strings.Builder
	for _, c := range row {
		switch c.Kind {
		case generalize.CellExact:
			fmt.Fprintf(&b, "e%d|", c.Value)
		case generalize.CellStar:
			b.WriteString("*|")
		default:
			fmt.Fprintf(&b, "s%v|", c.Set)
		}
	}
	return b.String()
}

// TestRecodedPartitionsMatchCellGrouping checks that the signature groups TDS
// and Incognito hand over as their partition are, as sets, exactly the
// groups of rows publishing identical cells.
func TestRecodedPartitionsMatchCellGrouping(t *testing.T) {
	canon := func(groups [][]int) [][]int {
		out := make([][]int, len(groups))
		for i, g := range groups {
			out[i] = slices.Sorted(slices.Values(g))
		}
		sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
		return out
	}
	for name, g := range releases(t) {
		if !strings.HasSuffix(name, "/tds") && !strings.HasSuffix(name, "/incognito") {
			continue
		}
		index := make(map[string]int)
		var byCells [][]int
		for r, row := range g.Cells {
			k := cellKey(row)
			gi, ok := index[k]
			if !ok {
				gi = len(byCells)
				index[k] = gi
				byCells = append(byCells, nil)
			}
			byCells[gi] = append(byCells[gi], r)
		}
		if got, want := canon(g.Partition.Groups), canon(byCells); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
			t.Errorf("%s: partition has %d groups, cell grouping %d", name, len(got), len(want))
		}
	}
}

func TestRecodeRejectsMalformedInput(t *testing.T) {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)), 0)
	tb.MustAppendRow([]int{0}, 0)
	tb.MustAppendRow([]int{1}, 1)
	cellOf := [][]generalize.Cell{{{Kind: generalize.CellExact, Value: 0}, {Kind: generalize.CellExact, Value: 1}}}
	tbl := tb.Build()
	if _, err := generalize.Recode(tbl, [][]int{{0}, {1}}, cellOf); err != nil {
		t.Fatalf("valid recoding rejected: %v", err)
	}
	if _, err := generalize.Recode(tbl, [][]int{{0}}, cellOf); err == nil {
		t.Error("groups missing a row accepted")
	}
	if _, err := generalize.Recode(tbl, [][]int{{0}, {1}}, nil); err == nil {
		t.Error("recoding without one cell table per attribute accepted")
	}
}
