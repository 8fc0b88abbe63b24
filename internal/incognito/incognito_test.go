package incognito

import (
	"math/rand"
	"testing"

	"ldiv/internal/eligibility"
	"ldiv/internal/metrics"
	"ldiv/internal/table"
	"ldiv/internal/taxonomy"
)

func randomTable(rng *rand.Rand, n, d, dom, m int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := 0; j < d; j++ {
		qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), dom)
	}
	tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", m)), 0)
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(dom)
		}
		tb.MustAppendRow(row, rng.Intn(m))
	}
	return tb.Build()
}

func TestIncognitoProducesLDiverseFullDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		l := 2 + rng.Intn(3)
		tbl := randomTable(rng, 150+rng.Intn(150), 1+rng.Intn(3), 4+rng.Intn(12), l+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		res, err := NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		g := res.Generalized
		if err := g.Partition.Validate(tbl); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !eligibility.IsLDiversePartition(tbl, g.Partition.Groups, l) {
			t.Fatal("Incognito output not l-diverse")
		}
		// Full-domain property: every occurrence of a value is published at
		// the same level, i.e. with the same cell.
		for j := 0; j < tbl.Dimensions(); j++ {
			cellOf := make(map[int]string)
			for r := 0; r < tbl.Len(); r++ {
				v := tbl.QIAt(r, j)
				lbl := g.Cells[r][j].Label(tbl.Schema().QI(j))
				if prev, ok := cellOf[v]; ok && prev != lbl {
					t.Fatalf("attribute %d value %d published at two levels", j, v)
				}
				cellOf[v] = lbl
				if !g.Cells[r][j].Covers(v) {
					t.Fatal("cell does not cover original value")
				}
			}
		}
		if len(res.Levels) != tbl.Dimensions() || res.Checked == 0 {
			t.Fatalf("result metadata implausible: %+v", res)
		}
		for j, lev := range res.Levels {
			if lev < 0 || lev > res.Heights[j] {
				t.Fatalf("level %d out of range [0,%d]", lev, res.Heights[j])
			}
		}
	}
}

func TestIncognitoPrefersNoGeneralizationWhenPossible(t *testing.T) {
	// A table whose identity grouping is already 2-diverse must come back at
	// level 0 on every attribute with zero information loss.
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 2)), 0)
	for i := 0; i < 16; i++ {
		tb.MustAppendRow([]int{i % 4}, (i/4)%2)
	}
	tbl := tb.Build()
	res, err := NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for j, lev := range res.Levels {
		if lev != 0 {
			t.Errorf("attribute %d generalized to level %d, want 0", j, lev)
		}
	}
	kl, err := metrics.KLDivergence(res.Generalized)
	if err != nil {
		t.Fatal(err)
	}
	if kl > 1e-9 {
		t.Errorf("KL = %g, want 0 for the untouched table", kl)
	}
}

func TestIncognitoForcedToGeneralize(t *testing.T) {
	// Every QI value is unique, so level 0 cannot be 2-diverse and at least
	// one attribute must be generalized.
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 16)},
		table.NewIntegerAttribute("S", 2)), 0)
	for i := 0; i < 16; i++ {
		tb.MustAppendRow([]int{i}, i%2)
	}
	tbl := tb.Build()
	res, err := NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels[0] == 0 {
		t.Error("level 0 cannot satisfy 2-diversity here")
	}
	if !eligibility.IsLDiversePartition(tbl, res.Generalized.Partition.Groups, 2) {
		t.Error("output not 2-diverse")
	}
}

func TestIncognitoErrorsAndBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	infeasible := randomTable(rng, 10, 1, 3, 1)
	if _, err := NewAnonymizer(2).Anonymize(infeasible); err == nil {
		t.Error("infeasible table accepted")
	}
	if _, err := NewAnonymizer(0).Anonymize(infeasible); err == nil {
		t.Error("l = 0 accepted")
	}
	ok := randomTable(rng, 60, 2, 8, 3)
	if !eligibility.IsEligibleTable(ok, 2) {
		t.Skip("unexpectedly infeasible")
	}
	wrong := []*taxonomy.Hierarchy{taxonomy.NewFlat(table.NewIntegerAttribute("other", 8))}
	if _, err := (&Anonymizer{L: 2, Hierarchies: wrong}).Anonymize(ok); err == nil {
		t.Error("hierarchy mismatch accepted")
	}
	// With a candidate budget of 1 only the all-zero vector is checked; the
	// search must still return a valid (fully generalized) fallback.
	res, err := (&Anonymizer{L: 2, MaxCandidates: 1}).Anonymize(ok)
	if err != nil {
		t.Fatal(err)
	}
	if !eligibility.IsLDiversePartition(ok, res.Generalized.Partition.Groups, 2) {
		t.Error("budgeted run returned an invalid publication")
	}
}

func TestVectorsWithSum(t *testing.T) {
	vs := vectorsWithSum([]int{2, 1}, 2)
	want := [][]int{{1, 1}, {2, 0}}
	if len(vs) != len(want) {
		t.Fatalf("got %v", vs)
	}
	for i := range want {
		for j := range want[i] {
			if vs[i][j] != want[i][j] {
				t.Fatalf("got %v, want %v", vs, want)
			}
		}
	}
	if got := vectorsWithSum([]int{1, 1}, 5); len(got) != 0 {
		t.Errorf("impossible sum returned %v", got)
	}
	if got := vectorsWithSum([]int{3}, 0); len(got) != 1 || got[0][0] != 0 {
		t.Errorf("zero sum returned %v", got)
	}
}

func TestHierarchyHeightAndChain(t *testing.T) {
	a := table.NewIntegerAttribute("A", 16)
	h := taxonomy.NewFanout(a, 4)
	height := hierarchyHeight(h)
	if height < 2 {
		t.Fatalf("height = %d, expected at least 2 for 16 values at fanout 4", height)
	}
	chain := ancestorChain(h.Leaf(5), height)
	if len(chain) != height+1 {
		t.Fatalf("chain length %d, want %d", len(chain), height+1)
	}
	if chain[0] != h.Leaf(5) || chain[height] != h.Root {
		t.Error("chain must start at the leaf and end at the root")
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].Width() < chain[i-1].Width() {
			t.Error("chain widths must be non-decreasing toward the root")
		}
	}
}
