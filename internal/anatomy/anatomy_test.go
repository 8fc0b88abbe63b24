package anatomy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

func randomTable(rng *rand.Rand, n, m int) *table.Table {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 6), table.NewIntegerAttribute("B", 4)},
		table.NewIntegerAttribute("S", m)), 0)
	for i := 0; i < n; i++ {
		tb.MustAppendRow([]int{rng.Intn(6), rng.Intn(4)}, rng.Intn(m))
	}
	return tb.Build()
}

func checkAnatomy(t *testing.T, tbl *table.Table, res *Result, l int) {
	t.Helper()
	seen := make([]bool, tbl.Len())
	for gi, g := range res.Groups {
		if len(g) < l {
			t.Fatalf("group %d has %d tuples, want at least %d", gi, len(g), l)
		}
		values := make(map[int]bool)
		for _, r := range g {
			if seen[r] {
				t.Fatalf("row %d assigned twice", r)
			}
			seen[r] = true
			if res.GroupOf[r] != gi {
				t.Fatalf("GroupOf[%d] = %d, group is %d", r, res.GroupOf[r], gi)
			}
			v := tbl.SAValue(r)
			if values[v] {
				t.Fatalf("group %d contains sensitive value %d twice", gi, v)
			}
			values[v] = true
		}
		if !eligibility.IsEligibleRows(tbl, g, l) {
			t.Fatalf("group %d is not %d-eligible", gi, l)
		}
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("row %d never assigned", r)
		}
	}
}

func TestAnatomyBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		l := 2 + rng.Intn(4)
		tbl := randomTable(rng, 20+rng.Intn(200), l+rng.Intn(5))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		res, err := Anonymize(tbl, l)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkAnatomy(t, tbl, res, l)
	}
}

func TestAnatomyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := randomTable(rng, 10, 2)
	if _, err := Anonymize(tbl, 1); err == nil {
		t.Error("l = 1 accepted")
	}
	skewb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)), 0)
	for i := 0; i < 5; i++ {
		skewb.MustAppendRow([]int{0}, 0)
	}
	skewb.MustAppendRow([]int{1}, 1)
	skew := skewb.Build()
	if _, err := Anonymize(skew, 2); err == nil {
		t.Error("ineligible table accepted")
	}
}

func TestAnatomyPublishedTables(t *testing.T) {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewAttribute("Age"), table.NewAttribute("Sex")},
		table.NewAttribute("Disease")), 0)
	data := [][3]string{
		{"23", "M", "flu"}, {"27", "F", "cold"}, {"35", "M", "flu"},
		{"41", "F", "angina"}, {"52", "M", "cold"}, {"66", "F", "angina"},
	}
	for _, r := range data {
		if err := tb.AppendLabels([]string{r[0], r[1]}, r[2]); err != nil {
			t.Fatal(err)
		}
	}
	tbl := tb.Build()
	res, err := Anonymize(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	qit := res.QIT(tbl)
	if len(qit) != tbl.Len() {
		t.Fatalf("QIT has %d rows", len(qit))
	}
	for _, row := range qit {
		// Anatomy publishes QI values exactly.
		if row.QI[0] != tbl.QILabel(row.Row, 0) || row.QI[1] != tbl.QILabel(row.Row, 1) {
			t.Error("QIT distorted a QI value")
		}
		if row.GroupID != res.GroupOf[row.Row] {
			t.Error("QIT group id mismatch")
		}
	}
	st := res.ST(tbl)
	// ST counts must sum to n and respect the per-group histograms.
	total := 0
	for _, row := range st {
		total += row.Count
		if row.GroupID < 0 || row.GroupID >= len(res.Groups) {
			t.Error("ST references an unknown group")
		}
	}
	if total != tbl.Len() {
		t.Errorf("ST counts sum to %d, want %d", total, tbl.Len())
	}
}

// Property: anatomy succeeds on every l-eligible table and produces at most
// one tuple per sensitive value per group.
func TestAnatomyQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%80) + 5
		l := int(lRaw%3) + 2
		tbl := randomTable(rng, n, l+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, l) {
			return true
		}
		res, err := Anonymize(tbl, l)
		if err != nil {
			return false
		}
		for _, g := range res.Groups {
			if len(g) < l {
				return false
			}
			vals := make(map[int]bool)
			for _, r := range g {
				if vals[tbl.SAValue(r)] {
					return false
				}
				vals[tbl.SAValue(r)] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
