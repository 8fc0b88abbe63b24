package attack

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/hilbert"
	"ldiv/internal/table"
)

// hospital builds Table 1 of the paper.
func hospital(t testing.TB) *table.Table {
	t.Helper()
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewAttribute("Age"), table.NewAttribute("Gender"), table.NewAttribute("Education")},
		table.NewAttribute("Disease")))
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
		if err := tbl.AppendLabels([]string{r[0], r[1], r[2]}, r[3]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// TestHomogeneityAttackOnTable2 reproduces the Section 1 observation: the
// 2-anonymous publication of Table 2 discloses Adam's and Bob's disease with
// certainty, even though no tuple can be linked uniquely.
func TestHomogeneityAttackOnTable2(t *testing.T) {
	tbl := hospital(t)
	p := generalize.NewPartition([][]int{{0, 1}, {2, 3}, {4, 5, 6, 7}, {8, 9}})
	rep, err := AuditPartition(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confidences[0] != 1 || rep.Confidences[1] != 1 {
		t.Errorf("Adam/Bob confidences = %v, want 1 (homogeneity problem)", rep.Confidences[:2])
	}
	if rep.Disclosed < 2 {
		t.Errorf("Disclosed = %d, want at least 2", rep.Disclosed)
	}
	if rep.MaxConfidence != 1 {
		t.Errorf("MaxConfidence = %g", rep.MaxConfidence)
	}
	if rep.BreachProbability(2) == 0 {
		t.Error("a 2-diversity breach should be reported for Table 2")
	}
}

// TestTable3BoundsConfidence checks the privacy guarantee quoted in the
// introduction: under the 2-diverse Table 3 no individual's disease can be
// inferred with more than 50% confidence.
func TestTable3BoundsConfidence(t *testing.T) {
	tbl := hospital(t)
	p := generalize.NewPartition([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}})
	rep, err := AuditPartition(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxConfidence > 0.5+1e-12 {
		t.Errorf("max confidence %g exceeds 1/2 on a 2-diverse table", rep.MaxConfidence)
	}
	if rep.Disclosed != 0 {
		t.Errorf("Disclosed = %d on a 2-diverse table", rep.Disclosed)
	}
	if got := rep.AtRisk(0.5); got != 0 {
		t.Errorf("AtRisk(0.5) = %d", got)
	}
	if rep.MeanConfidence <= 0 || rep.MeanConfidence > 0.5+1e-12 {
		t.Errorf("mean confidence %g implausible", rep.MeanConfidence)
	}
}

// TestAuditEmptyAndErrors covers the degenerate paths.
func TestAuditEmptyAndErrors(t *testing.T) {
	empty := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)))
	g, err := generalize.Suppress(empty, generalize.NewPartition(nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Confidences) != 0 || rep.BreachProbability(2) != 0 {
		t.Error("empty audit should be empty")
	}
}

// Property: for any l-diverse TP or Hilbert publication of a random table,
// the linking adversary's confidence never exceeds 1/l — the guarantee
// l-diversity is designed to provide (union of l-eligible matching groups is
// l-eligible by Lemma 1).
func TestLDiversityBoundsAdversaryQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 10
		l := int(lRaw%3) + 2
		qi := []*table.Attribute{table.NewIntegerAttribute("A", 4), table.NewIntegerAttribute("B", 3)}
		tbl := table.New(table.MustSchema(qi, table.NewIntegerAttribute("S", l+2)))
		for i := 0; i < n; i++ {
			tbl.MustAppendRow([]int{rng.Intn(4), rng.Intn(3)}, rng.Intn(l+2))
		}
		if !eligibility.IsEligibleTable(tbl, l) {
			return true
		}
		res, err := core.NewHybridAnonymizer(l, hilbert.NewSuppressor(l)).Anonymize(tbl)
		if err != nil {
			return false
		}
		rep, err := AuditPartition(tbl, res.Partition())
		if err != nil {
			return false
		}
		return rep.MaxConfidence <= 1.0/float64(l)+1e-9 && rep.BreachProbability(l) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRawTableFullyDisclosed checks the other extreme: publishing the
// identity partition of a table with unique QI values discloses everyone.
func TestRawTableFullyDisclosed(t *testing.T) {
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 10)},
		table.NewIntegerAttribute("S", 3)))
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow([]int{i}, i%3)
	}
	groups := make([][]int, 10)
	for i := range groups {
		groups[i] = []int{i}
	}
	rep, err := AuditPartition(tbl, generalize.NewPartition(groups))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disclosed != 10 || rep.MeanConfidence != 1 {
		t.Errorf("raw publication should disclose everyone: %+v", rep)
	}
}

// TestAuditDeterministic is the regression test for an audit whose
// MeanConfidence depended on map iteration order: the confidences are summed
// as floats, so repeated audits of one release must visit the QI profiles in
// the same order and return bit-identical reports.
func TestAuditDeterministic(t *testing.T) {
	base, err := dataset.Generate("sal", dataset.Config{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := base.ProjectNames([]string{"Age", "Gender", "Race", "Marital Status"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewHybridAnonymizer(4, hilbert.NewSuppressor(4)).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	first, err := AuditPartition(tbl, res.Partition())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rep, err := AuditPartition(tbl, res.Partition())
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(rep.MeanConfidence) != math.Float64bits(first.MeanConfidence) ||
			rep.MaxConfidence != first.MaxConfidence || rep.Disclosed != first.Disclosed {
			t.Fatalf("audit %d differs: mean %.17g max %g disclosed %d, first mean %.17g max %g disclosed %d",
				i, rep.MeanConfidence, rep.MaxConfidence, rep.Disclosed, first.MeanConfidence, first.MaxConfidence, first.Disclosed)
		}
		if !slices.Equal(rep.Confidences, first.Confidences) {
			t.Fatalf("audit %d: per-row confidences differ", i)
		}
	}
}

// TestAuditRejectsUncoveredRecoding checks the error branch: a recoding whose
// cells miss a source value (a set omitting it, an exact cell naming another
// value, or exact and set cells carrying codes outside the domain) leaves a
// QI vector that no published group covers.
func TestAuditRejectsUncoveredRecoding(t *testing.T) {
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 3), table.NewIntegerAttribute("B", 2)},
		table.NewIntegerAttribute("S", 2)))
	for _, r := range [][3]int{{0, 0, 0}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {2, 0, 0}, {2, 1, 1}} {
		tbl.MustAppendRow([]int{r[0], r[1]}, r[2])
	}
	star := generalize.Cell{Kind: generalize.CellStar}
	exact := func(v int) generalize.Cell { return generalize.Cell{Kind: generalize.CellExact, Value: v} }
	set := func(vs ...int) generalize.Cell { return generalize.Cell{Kind: generalize.CellSet, Set: vs} }
	all := [][]int{{0, 1, 2, 3, 4, 5}}
	byA := [][]int{{0, 1}, {2, 3}, {4, 5}}
	rows := [][]int{{0}, {1}, {2}, {3}, {4}, {5}}
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
		if _, err := Audit(g); err == nil {
			t.Errorf("%s: Audit accepted a release that does not cover the microdata", tc.name)
		}
	}
}
