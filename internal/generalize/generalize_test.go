package generalize

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ldiv/internal/table"
)

// hospital builds Table 1 of the paper.
func hospital(t *testing.T) *table.Table {
	t.Helper()
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewAttribute("Age"), table.NewAttribute("Gender"), table.NewAttribute("Education")},
		table.NewAttribute("Disease")), 0)
	rows := [][4]string{
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Bachelor", "pneumonia"},
		{"[30,50)", "M", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{">=50", "F", "HighSch", "dyspepsia"},
		{">=50", "F", "HighSch", "pneumonia"},
	}
	for _, r := range rows {
		if err := tb.AppendLabels([]string{r[0], r[1], r[2]}, r[3]); err != nil {
			t.Fatal(err)
		}
	}
	return tb.Build()
}

func TestPartitionValidate(t *testing.T) {
	tbl := hospital(t)
	good := NewPartition([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	if err := good.Validate(tbl); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	if err := NewPartition([][]int{{0, 1}}).Validate(tbl); err == nil {
		t.Error("partial partition accepted")
	}
	if err := NewPartition([][]int{{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}).Validate(tbl); err == nil {
		t.Error("duplicate row accepted")
	}
	if err := NewPartition([][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 42}}).Validate(tbl); err == nil {
		t.Error("out-of-range row accepted")
	}
	if NewPartition([][]int{{0}, nil, {}}).Size() != 1 {
		t.Error("empty groups should be dropped")
	}
}

// TestTable2 reproduces the 2-anonymous publication of Table 2: groups
// {1,2},{3,4},{5..8},{9,10} yield 2 stars (Age of Calvin and Danny).
func TestTable2Suppression(t *testing.T) {
	tbl := hospital(t)
	p := NewPartition([][]int{{0, 1}, {2, 3}, {4, 5, 6, 7}, {8, 9}})
	g, err := Suppress(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Stars(); got != 2 {
		t.Errorf("Table 2 should contain 2 stars, got %d", got)
	}
	if got := g.SuppressedTuples(); got != 2 {
		t.Errorf("Table 2 suppresses 2 tuples, got %d", got)
	}
	// Tuples 3 and 4 (rows 2,3) have their Age suppressed but keep Gender
	// and Education.
	if !g.Cells[2][0].IsStar() || g.Cells[2][1].IsStar() || g.Cells[2][2].IsStar() {
		t.Errorf("row 2 cells wrong: %+v", g.Cells[2])
	}
}

// TestTable3 reproduces the 2-diverse publication of Table 3: groups
// {1,2,3,4},{5..8},{9,10} yield 8 stars and 4 suppressed tuples, matching the
// counts quoted below Problem 2 in the paper.
func TestTable3Suppression(t *testing.T) {
	tbl := hospital(t)
	p := NewPartition([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	g, err := Suppress(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Stars(); got != 8 {
		t.Errorf("Table 3 should contain 8 stars, got %d", got)
	}
	if got := g.SuppressedTuples(); got != 4 {
		t.Errorf("Table 3 suppresses 4 tuples, got %d", got)
	}
	if got := partitionStars(tbl, p); got != 8 {
		t.Errorf("partitionStars = %d, want 8", got)
	}
}

func TestMultiDimensional(t *testing.T) {
	tbl := hospital(t)
	p := NewPartition([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	g, err := MultiDimensional(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	// Table 5: the first group's Age becomes the sub-domain {<30, [30,50)}
	// and Education becomes {Master, Bachelor}; Gender stays M.
	if g.Cells[0][0].Kind != CellSet || len(g.Cells[0][0].Set) != 2 {
		t.Errorf("age cell = %+v", g.Cells[0][0])
	}
	if g.Cells[0][1].Kind != CellExact {
		t.Errorf("gender cell should stay exact: %+v", g.Cells[0][1])
	}
	// Multi-dimensional generalization never counts stars unless the
	// sub-domain equals the full domain.
	if g.Stars() != 0 {
		t.Errorf("multi-dimensional stars = %d, want 0", g.Stars())
	}
	if g.SuppressedTuples() != 0 {
		t.Errorf("multi-dimensional suppressed tuples = %d, want 0", g.SuppressedTuples())
	}
}

func TestCellHelpers(t *testing.T) {
	a := table.NewIntegerAttribute("A", 4)
	exact := Cell{Kind: CellExact, Value: 2}
	star := Cell{Kind: CellStar}
	set := Cell{Kind: CellSet, Set: []int{1, 3}}
	if exact.Width(4) != 1 || star.Width(4) != 4 || set.Width(4) != 2 {
		t.Error("Width wrong")
	}
	if !exact.Covers(2) || exact.Covers(1) {
		t.Error("exact Covers wrong")
	}
	if !star.Covers(3) {
		t.Error("star Covers wrong")
	}
	if !set.Covers(3) || set.Covers(2) {
		t.Error("set Covers wrong")
	}
	if exact.Label(a) != "2" || star.Label(a) != "*" || !strings.Contains(set.Label(a), "1") {
		t.Error("Label wrong")
	}
	full := Cell{Kind: CellSet, Set: []int{0, 1, 2, 3}}
	if full.Label(a) != "*" {
		t.Error("full-domain set should render as *")
	}
}

// Property: for random partitions, Stars() of the suppressed table equals
// partitionStars, and suppressed tuples never exceed stars which never
// exceed d * suppressed tuples (the inequality used in Lemma 2).
func TestStarsBoundsQuick(t *testing.T) {
	tbl := hospital(t)
	n, d := tbl.Len(), tbl.Dimensions()
	f := func(seed int64, groupsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(groupsRaw%5) + 1
		groups := make([][]int, k)
		for r := 0; r < n; r++ {
			b := rng.Intn(k)
			groups[b] = append(groups[b], r)
		}
		p := NewPartition(groups)
		g, err := Suppress(tbl, p)
		if err != nil {
			return false
		}
		stars := g.Stars()
		if stars != partitionStars(tbl, p) {
			return false
		}
		sup := g.SuppressedTuples()
		return sup <= stars && stars <= d*sup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: multi-dimensional generalization is never less accurate than
// suppression: wherever suppression keeps an exact value, so does the
// multi-dimensional view, and set cells always cover the original value.
func TestMultiDimensionalDominatesSuppressionQuick(t *testing.T) {
	tbl := hospital(t)
	n := tbl.Len()
	f := func(seed int64, groupsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(groupsRaw%4) + 1
		groups := make([][]int, k)
		for r := 0; r < n; r++ {
			groups[rng.Intn(k)] = append(groups[rng.Intn(k)%k], r)
		}
		// Rebuild groups properly (the line above may drop rows); assign each
		// row exactly once.
		groups = make([][]int, k)
		for r := 0; r < n; r++ {
			b := rng.Intn(k)
			groups[b] = append(groups[b], r)
		}
		p := NewPartition(groups)
		sup, err := Suppress(tbl, p)
		if err != nil {
			return false
		}
		multi, err := MultiDimensional(tbl, p)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < tbl.Dimensions(); j++ {
				if !multi.Cells[i][j].Covers(tbl.QIAt(i, j)) {
					return false
				}
				if sup.Cells[i][j].Kind == CellExact && multi.Cells[i][j].Kind != CellExact {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// partitionStars counts, without materializing cells, the stars of the
// suppression generalization of p: the oracle of Generalized.Stars.
func partitionStars(t *table.Table, p *Partition) int {
	stars := 0
	for j := 0; j < t.Dimensions(); j++ {
		col := t.Col(j)
		for _, g := range p.Groups {
			for _, r := range g[1:] {
				if col[r] != col[g[0]] {
					stars += len(g)
					break
				}
			}
		}
	}
	return stars
}
