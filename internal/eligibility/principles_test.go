package eligibility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/table"
)

func principleTable(saValues []int) *table.Table {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 16)), 0)
	for i, v := range saValues {
		tb.MustAppendRow([]int{i % 4}, v)
	}
	return tb.Build()
}

func TestEntropyLDiversity(t *testing.T) {
	// Uniform over 4 values: entropy = log 4, satisfies l = 4 but not l = 5.
	tbl := principleTable([]int{0, 1, 2, 3})
	g := [][]int{{0, 1, 2, 3}}
	if !EntropyLDiversity(tbl, g, 4) {
		t.Error("uniform group should satisfy entropy 4-diversity")
	}
	if EntropyLDiversity(tbl, g, 5) {
		t.Error("4-value group cannot satisfy entropy 5-diversity")
	}
	// Skewed group: frequencies 3,1 -> entropy < log 2.
	skew := principleTable([]int{0, 0, 0, 1})
	if EntropyLDiversity(skew, [][]int{{0, 1, 2, 3}}, 2) {
		t.Error("skewed group should fail entropy 2-diversity")
	}
	if !EntropyLDiversity(skew, [][]int{{0, 1, 2, 3}}, 1) {
		t.Error("l = 1 is always satisfied")
	}
	// Empty groups are ignored.
	if !EntropyLDiversity(tbl, [][]int{nil, {0, 1, 2, 3}}, 2) {
		t.Error("empty group should be skipped")
	}
}

// Property: entropy l-diversity implies distinct l-diversity, because the
// entropy of a distribution over k values is at most log k.
func TestEntropyImpliesDistinctQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		l := int(lRaw%4) + 2
		sa := make([]int, n)
		for i := range sa {
			sa[i] = rng.Intn(6)
		}
		tbl := principleTable(sa)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		groups := [][]int{rows}
		if !EntropyLDiversity(tbl, groups, l) {
			return true
		}
		return DistinctLDiversity(tbl, groups, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRecursiveCLDiversity(t *testing.T) {
	// Counts 3,2,1 sorted descending; l=2, c=1: r1=3 >= 1*(2+1)=3 -> fail;
	// c=2: 3 < 2*3=6 -> pass.
	tbl := principleTable([]int{0, 0, 0, 1, 1, 2})
	g := [][]int{{0, 1, 2, 3, 4, 5}}
	if RecursiveCLDiversity(tbl, g, 1.0, 2) {
		t.Error("c=1 should fail")
	}
	if !RecursiveCLDiversity(tbl, g, 2.0, 2) {
		t.Error("c=2 should pass")
	}
	// Fewer than l distinct values fails outright.
	if RecursiveCLDiversity(tbl, g, 10.0, 4) {
		t.Error("group with 3 distinct values cannot be (c,4)-diverse")
	}
	if !RecursiveCLDiversity(tbl, g, 0.0, 1) {
		t.Error("l = 1 is always satisfied")
	}
}

func TestAlphaKAnonymity(t *testing.T) {
	tbl := principleTable([]int{0, 1, 0, 1, 2, 3})
	good := [][]int{{0, 1}, {2, 3, 4, 5}}
	if !AlphaKAnonymity(tbl, good, 0.5, 2) {
		t.Error("balanced partition should satisfy (0.5, 2)-anonymity")
	}
	if AlphaKAnonymity(tbl, good, 0.4, 2) {
		t.Error("alpha = 0.4 cannot hold for a 2-tuple group with distinct values")
	}
	if AlphaKAnonymity(tbl, good, 0.5, 3) {
		t.Error("k = 3 should fail for the 2-tuple group")
	}
	homogeneous := principleTable([]int{0, 0})
	if AlphaKAnonymity(homogeneous, [][]int{{0, 1}}, 0.5, 2) {
		t.Error("homogeneous group should fail the alpha bound")
	}
}

func TestDistinctLDiversity(t *testing.T) {
	tbl := principleTable([]int{0, 1, 2, 0})
	g := [][]int{{0, 1, 2, 3}}
	if !DistinctLDiversity(tbl, g, 3) {
		t.Error("group has 3 distinct values")
	}
	if DistinctLDiversity(tbl, g, 4) {
		t.Error("group has only 3 distinct values")
	}
}

// Property: frequency-based l-eligibility implies distinct l-diversity.
func TestFrequencyImpliesDistinctQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		l := int(lRaw%4) + 2
		sa := make([]int, n)
		for i := range sa {
			sa[i] = rng.Intn(6)
		}
		tbl := principleTable(sa)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		groups := [][]int{rows}
		if !IsLDiversePartition(tbl, groups, l) {
			return true
		}
		return DistinctLDiversity(tbl, groups, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
