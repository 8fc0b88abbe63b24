package metrics

import (
	"math"
	"math/rand"
	"testing"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

func smallTable() *table.Table {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2), table.NewIntegerAttribute("B", 4)},
		table.NewIntegerAttribute("S", 2)), 0)
	rows := [][3]int{
		{0, 0, 0}, {0, 1, 1}, {1, 2, 0}, {1, 3, 1},
	}
	for _, r := range rows {
		tb.MustAppendRow([]int{r[0], r[1]}, r[2])
	}
	return tb.Build()
}

func TestKLZeroForIdentityPartition(t *testing.T) {
	tbl := smallTable()
	p := generalize.NewPartition([][]int{{0}, {1}, {2}, {3}})
	g, err := generalize.Suppress(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KLDivergence(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kl) > 1e-12 {
		t.Errorf("identity generalization should have zero KL, got %g", kl)
	}
}

func TestKLHandComputedExample(t *testing.T) {
	// Two tuples, one QI attribute with 2 values, grouped together so the
	// attribute is suppressed. f assigns 1/2 to each original point; f*
	// spreads each tuple uniformly over both attribute values, so
	// f*(point) = 1/2 * 1/2 = 1/4 for the two observed points.
	// KL = 2 * (1/2 * ln((1/2)/(1/4))) = ln 2.
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)), 0)
	tb.MustAppendRow([]int{0}, 0)
	tb.MustAppendRow([]int{1}, 1)
	tbl := tb.Build()
	g, err := generalize.Suppress(tbl, generalize.NewPartition([][]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KLDivergence(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kl-math.Ln2) > 1e-12 {
		t.Errorf("KL = %g, want ln 2 = %g", kl, math.Ln2)
	}
}

func TestKLMonotoneInCoarsening(t *testing.T) {
	// Coarser partitions lose more information: KL(single group) >= KL(pairs)
	// >= KL(identity) = 0.
	tbl := smallTable()
	fine, _ := generalize.Suppress(tbl, generalize.NewPartition([][]int{{0, 1}, {2, 3}}))
	coarse, _ := generalize.Suppress(tbl, generalize.NewPartition([][]int{{0, 1, 2, 3}}))
	klFine, err := KLDivergence(fine)
	if err != nil {
		t.Fatal(err)
	}
	klCoarse, err := KLDivergence(coarse)
	if err != nil {
		t.Fatal(err)
	}
	if klFine < 0 || klCoarse < 0 {
		t.Errorf("KL must be non-negative: fine %g coarse %g", klFine, klCoarse)
	}
	if klCoarse < klFine {
		t.Errorf("coarser partition has smaller KL: %g < %g", klCoarse, klFine)
	}
}

func TestKLMultiDimensionalNotWorseThanSuppression(t *testing.T) {
	// Multi-dimensional generalization retains at least as much information
	// as suppression of the same partition, so its KL must not be larger.
	rng := rand.New(rand.NewSource(1))
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 6), table.NewIntegerAttribute("B", 6)},
		table.NewIntegerAttribute("S", 3)), 0)
	for i := 0; i < 60; i++ {
		tb.MustAppendRow([]int{rng.Intn(6), rng.Intn(3)}, rng.Intn(3))
	}
	groups := make([][]int, 10)
	tbl := tb.Build()
	for r := 0; r < tbl.Len(); r++ {
		groups[r%10] = append(groups[r%10], r)
	}
	p := generalize.NewPartition(groups)
	sup, _ := generalize.Suppress(tbl, p)
	multi, _ := generalize.MultiDimensional(tbl, p)
	klSup, err := KLDivergence(sup)
	if err != nil {
		t.Fatal(err)
	}
	klMulti, err := KLDivergence(multi)
	if err != nil {
		t.Fatal(err)
	}
	if klMulti > klSup+1e-9 {
		t.Errorf("multi-dimensional KL %g exceeds suppression KL %g", klMulti, klSup)
	}
}

func TestAuxiliaryMetrics(t *testing.T) {
	p := generalize.NewPartition([][]int{{0, 1}, {2, 3, 4, 5}})
	if got := AverageGroupSize(p); got != 3 {
		t.Errorf("average group size = %g, want 3", got)
	}
	if got := Discernibility(p); got != 4+16 {
		t.Errorf("discernibility = %d, want 20", got)
	}
	empty := generalize.NewPartition(nil)
	if AverageGroupSize(empty) != 0 {
		t.Error("empty partition average should be 0")
	}
}

func TestKLEmptyTable(t *testing.T) {
	tbl := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)), 0).Build()
	g, err := generalize.Suppress(tbl, generalize.NewPartition(nil))
	if err != nil {
		t.Fatal(err)
	}
	kl, err := KLDivergence(g)
	if err != nil || kl != 0 {
		t.Errorf("empty table KL = %g, %v", kl, err)
	}
}

// TestKLRejectsUncoveredRecoding checks the error branch: a recoding whose
// cells miss a source value (a set omitting it, an exact cell naming another
// value, or exact and set cells carrying codes outside the domain) leaves a
// point with zero induced mass.
func TestKLRejectsUncoveredRecoding(t *testing.T) {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 3), table.NewIntegerAttribute("B", 2)},
		table.NewIntegerAttribute("S", 2)), 0)
	for _, r := range [][3]int{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {2, 0, 0}, {2, 1, 1}} {
		tb.MustAppendRow([]int{r[0], r[1]}, r[2])
	}
	star := generalize.Cell{Kind: generalize.CellStar}
	exact := func(v int) generalize.Cell { return generalize.Cell{Kind: generalize.CellExact, Value: v} }
	set := func(vs ...int) generalize.Cell { return generalize.Cell{Kind: generalize.CellSet, Set: vs} }
	all := [][]int{{0, 1, 2, 3, 4, 5}}
	byA := [][]int{{0, 1}, {2, 3}, {4, 5}}
	rows := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
	tbl := tb.Build()
	for _, tc := range []struct {
		name   string
		groups [][]int
		a, b   []generalize.Cell
	}{
		{"set missing a value", all, []generalize.Cell{set(0, 1), set(0, 1), set(0, 1)}, []generalize.Cell{star, star}},
		{"exact naming another value", rows, []generalize.Cell{exact(0), exact(1), exact(1)}, []generalize.Cell{exact(0), exact(1)}},
		{"exact out of domain", byA, []generalize.Cell{exact(0), exact(1), exact(7)}, []generalize.Cell{star, star}},
		{"all-exact out of domain", rows, []generalize.Cell{exact(0), exact(-1), exact(2)}, []generalize.Cell{exact(0), exact(1)}},
		{"set out of domain", all, []generalize.Cell{set(0, 1, 9), set(0, 1, 9), set(0, 1, 9)}, []generalize.Cell{star, star}},
	} {
		g, err := generalize.Recode(tbl, tc.groups, [][]generalize.Cell{tc.a, tc.b})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := KLDivergence(g); err == nil {
			t.Errorf("%s: KLDivergence accepted a release that does not cover the microdata", tc.name)
		}
		// In blocks of one group each, the uncovered points of A=1 and A=2
		// sit in later blocks. Every worker count must report the one error,
		// not one copy per worker that met it.
		for _, workers := range []int{1, 2, 4} {
			if _, err := klDivergence(g, workers, 1); err == nil || err.Error() != errUncovered.Error() {
				t.Errorf("%s: %d workers, blocks of one group: error %v, want %v", tc.name, workers, err, errUncovered)
			}
		}
	}
}
