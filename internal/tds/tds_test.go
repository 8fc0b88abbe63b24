package tds

import (
	"math/rand"
	"testing"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
	"ldiv/internal/taxonomy"
)

func randomTable(rng *rand.Rand, n, d, dom, m int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := 0; j < d; j++ {
		qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), dom)
	}
	tbl := table.New(table.MustSchema(qi, table.NewIntegerAttribute("S", m)))
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(dom)
		}
		tbl.MustAppendRow(row, rng.Intn(m))
	}
	return tbl
}

func TestTDSProducesLDiverseSingleDimensional(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		l := 2 + rng.Intn(3)
		tbl := randomTable(rng, 100+rng.Intn(100), 1+rng.Intn(3), 4+rng.Intn(8), l+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		g, err := NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Partition.Validate(tbl); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !eligibility.IsLDiversePartition(tbl, g.Partition.Groups, l) {
			t.Fatal("TDS output not l-diverse")
		}
		// Single-dimensional property: the cell of a value is the same
		// everywhere the value appears, per attribute.
		for j := 0; j < tbl.Dimensions(); j++ {
			cellOf := make(map[int]string)
			for r := 0; r < tbl.Len(); r++ {
				v := tbl.QIAt(r, j)
				lbl := g.Cells[r][j].Label(tbl.Schema().QI(j))
				if prev, ok := cellOf[v]; ok && prev != lbl {
					t.Fatalf("attribute %d value %d published as both %q and %q", j, v, prev, lbl)
				}
				cellOf[v] = lbl
				if !g.Cells[r][j].Covers(v) {
					t.Fatal("cell does not cover the original value")
				}
			}
		}
	}
}

func TestTDSSpecializesWhenSafe(t *testing.T) {
	// Two clearly separable clusters with diverse SA values: TDS must not
	// stay at the root (it can at least split the first attribute).
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 8)},
		table.NewIntegerAttribute("S", 4)))
	for i := 0; i < 40; i++ {
		tbl.MustAppendRow([]int{i % 4}, i%4)
	}
	for i := 0; i < 40; i++ {
		tbl.MustAppendRow([]int{4 + i%4}, i%4)
	}
	g, err := NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if g.Partition.Size() < 2 {
		t.Errorf("TDS did not specialize at all: %d groups", g.Partition.Size())
	}
	if !eligibility.IsLDiversePartition(tbl, g.Partition.Groups, 2) {
		t.Fatal("output not 2-diverse")
	}
}

func TestTDSRespectsMaxSpecializations(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(4)), 200, 2, 8, 5)
	a := &Anonymizer{L: 2, MaxSpecializations: 1}
	g, err := a.Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	// With a single specialization only one attribute can have been split
	// once, so the number of distinct published signatures is small.
	if g.Partition.Size() > 8 {
		t.Errorf("one specialization produced %d groups", g.Partition.Size())
	}
}

func TestTDSErrors(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(5)), 10, 1, 3, 1)
	if _, err := NewAnonymizer(2).Anonymize(tbl); err == nil {
		t.Error("infeasible table accepted")
	}
	if _, err := NewAnonymizer(0).Anonymize(tbl); err == nil {
		t.Error("l = 0 accepted")
	}
	ok := randomTable(rand.New(rand.NewSource(6)), 20, 2, 3, 3)
	wrong := []*taxonomy.Hierarchy{taxonomy.NewFlat(table.NewIntegerAttribute("other", 3))}
	if _, err := (&Anonymizer{L: 2, Hierarchies: wrong}).Anonymize(ok); err == nil {
		t.Error("hierarchy count / attribute mismatch accepted")
	}
}

func TestTDSWithCustomHierarchies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := randomTable(rng, 150, 2, 8, 4)
	if !eligibility.IsEligibleTable(tbl, 2) {
		t.Skip("random table unexpectedly infeasible")
	}
	hs := []*taxonomy.Hierarchy{
		taxonomy.NewFanout(tbl.Schema().QI(0), 2),
		taxonomy.NewFlat(tbl.Schema().QI(1)),
	}
	g, err := (&Anonymizer{L: 2, Hierarchies: hs}).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !eligibility.IsLDiversePartition(tbl, g.Partition.Groups, 2) {
		t.Fatal("output not 2-diverse")
	}
	// More specialization should never make the generalization cover less:
	// cells still cover original values.
	for r := 0; r < tbl.Len(); r++ {
		for j := 0; j < tbl.Dimensions(); j++ {
			if !g.Cells[r][j].Covers(tbl.QIAt(r, j)) {
				t.Fatal("cell does not cover original value")
			}
		}
	}
	_ = generalize.CellExact
}
