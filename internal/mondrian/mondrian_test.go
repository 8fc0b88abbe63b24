package mondrian

import (
	"math/rand"
	"testing"

	"ldiv/internal/eligibility"
	"ldiv/internal/table"
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

func TestMondrianLDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		l := 2 + rng.Intn(3)
		tbl := randomTable(rng, 80+rng.Intn(150), 1+rng.Intn(4), 4+rng.Intn(10), l+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		p, err := NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(tbl); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !eligibility.IsLDiversePartition(tbl, p.Groups, l) {
			t.Fatal("partition not l-diverse")
		}
	}
}

func TestMondrianSplitsSeparableData(t *testing.T) {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("X", 10)},
		table.NewIntegerAttribute("S", 2)), 0)
	for i := 0; i < 20; i++ {
		tb.MustAppendRow([]int{i % 2}, i%2)
	}
	for i := 0; i < 20; i++ {
		tb.MustAppendRow([]int{8 + i%2}, i%2)
	}
	tbl := tb.Build()
	p, err := NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() < 2 {
		t.Errorf("Mondrian failed to split clearly separable data: %d groups", p.Size())
	}
	g, err := NewAnonymizer(2).Generalize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.Len(); r++ {
		if !g.Cells[r][0].Covers(tbl.QIAt(r, 0)) {
			t.Fatal("generalized cell does not cover original value")
		}
	}
}

func TestMondrianErrors(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 10, 1, 3, 1)
	if _, err := NewAnonymizer(2).Anonymize(tbl); err == nil {
		t.Error("infeasible table accepted")
	}
	if _, err := NewAnonymizer(0).Anonymize(tbl); err == nil {
		t.Error("l = 0 accepted")
	}
}
