package dataset

import (
	"testing"

	"ldiv/internal/eligibility"
)

// TestTable6DomainSizes pins the generator to the attribute domains of the
// paper's Table 6.
func TestTable6DomainSizes(t *testing.T) {
	sal, err := Generate("sal", Config{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	occ, err := Generate("occ", Config{Rows: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantQI := map[string]int{
		"Age": 79, "Gender": 2, "Race": 9, "Marital Status": 6,
		"Birth Place": 56, "Education": 17, "Work Class": 9,
	}
	if sal.Dimensions() != 7 || occ.Dimensions() != 7 {
		t.Fatalf("dimensions: SAL %d, OCC %d, want 7", sal.Dimensions(), occ.Dimensions())
	}
	for j := 0; j < sal.Dimensions(); j++ {
		a := sal.Schema().QI(j)
		if wantQI[a.Name()] != a.Cardinality() {
			t.Errorf("SAL attribute %q cardinality %d, want %d", a.Name(), a.Cardinality(), wantQI[a.Name()])
		}
	}
	if sal.Schema().SA().Name() != "Income" || sal.Schema().SA().Cardinality() != 50 {
		t.Errorf("SAL sensitive attribute %q/%d", sal.Schema().SA().Name(), sal.Schema().SA().Cardinality())
	}
	if occ.Schema().SA().Name() != "Occupation" || occ.Schema().SA().Cardinality() != 50 {
		t.Errorf("OCC sensitive attribute %q/%d", occ.Schema().SA().Name(), occ.Schema().SA().Cardinality())
	}
}

func TestGenerateDeterministicAndEligible(t *testing.T) {
	a, err := Generate("sal", Config{Rows: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("sal", Config{Rows: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different tables")
	}
	c, err := Generate("sal", Config{Rows: 5000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("different seeds produced identical tables")
	}
	// Census-like data must admit l-diverse generalizations for the l range
	// used in the evaluation (2..10).
	if !eligibility.IsEligibleTable(a, 10) {
		t.Error("generated SAL table is not even 10-eligible; skew too extreme")
	}
	if got := a.Len(); got != 5000 {
		t.Errorf("rows = %d", got)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate("sal", Config{Rows: 0}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Generate("occ", Config{Rows: -5}); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestGeneratedValuesCoverDomains(t *testing.T) {
	tbl, err := Generate("occ", Config{Rows: 60000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every attribute should use a healthy fraction of its domain; a
	// degenerate generator would make the anonymization problem trivial.
	for j := 0; j < tbl.Dimensions(); j++ {
		seen := make(map[int]bool)
		for i := 0; i < tbl.Len(); i++ {
			seen[tbl.QIAt(i, j)] = true
		}
		card := tbl.Schema().QI(j).Cardinality()
		if len(seen) < card/2 {
			t.Errorf("attribute %q uses %d of %d values", tbl.Schema().QI(j).Name(), len(seen), card)
		}
	}
	seenSA := make(map[int]bool)
	for i := 0; i < tbl.Len(); i++ {
		seenSA[tbl.SAValue(i)] = true
	}
	if len(seenSA) < 25 {
		t.Errorf("sensitive attribute uses only %d of 50 values", len(seenSA))
	}
}

func TestProjections(t *testing.T) {
	combos, err := Projections(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(combos) != 35 { // C(7,4)
		t.Errorf("C(7,4) projections = %d, want 35", len(combos))
	}
	all, err := Projections(7)
	if err != nil || len(all) != 1 {
		t.Errorf("C(7,7) projections = %d, want 1", len(all))
	}
	one, err := Projections(1)
	if err != nil || len(one) != 7 {
		t.Errorf("C(7,1) projections = %d, want 7", len(one))
	}
	if _, err := Projections(0); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := Projections(8); err == nil {
		t.Error("d = 8 accepted")
	}
	// No duplicate subsets.
	seen := make(map[string]bool)
	for _, c := range combos {
		key := ""
		for _, name := range c {
			key += name + "|"
		}
		if seen[key] {
			t.Errorf("duplicate projection %v", c)
		}
		seen[key] = true
	}
}

func TestProjectionTables(t *testing.T) {
	base, err := Generate("sal", Config{Rows: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tables, err := ProjectionTables(base, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("cap not applied: %d tables", len(tables))
	}
	for _, tbl := range tables {
		if tbl.Dimensions() != 3 || tbl.Len() != base.Len() {
			t.Errorf("projection shape %dx%d", tbl.Len(), tbl.Dimensions())
		}
	}
	all, err := ProjectionTables(base, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 21 { // C(7,2)
		t.Errorf("C(7,2) projections = %d, want 21", len(all))
	}
}

// TestProjectionsEdgeCases pins the boundary contract of the projection
// enumerators in one table: d outside [1, len(QINames)] is always an error,
// and every non-positive maxTables means "no cap", not "no tables".
func TestProjectionsEdgeCases(t *testing.T) {
	base, err := Generate("sal", Config{Rows: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name      string
		d         int
		maxTables int
		want      int // expected table count; -1 means an error
	}{
		{name: "d zero", d: 0, maxTables: 0, want: -1},
		{name: "d negative", d: -3, maxTables: 0, want: -1},
		{name: "d above QI count", d: len(QINames) + 1, maxTables: 0, want: -1},
		{name: "d far above QI count", d: 100, maxTables: 5, want: -1},
		{name: "zero cap means all", d: 2, maxTables: 0, want: 21},
		{name: "negative cap means all", d: 2, maxTables: -1, want: 21},
		{name: "very negative cap means all", d: 1, maxTables: -99, want: 7},
		{name: "cap of one", d: 3, maxTables: 1, want: 1},
		{name: "cap above count is a no-op", d: 7, maxTables: 50, want: 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			combos, cerr := Projections(tc.d)
			tables, terr := ProjectionTables(base, tc.d, tc.maxTables)
			if tc.want < 0 {
				if cerr == nil {
					t.Errorf("Projections(%d) accepted an out-of-range d", tc.d)
				}
				if terr == nil {
					t.Errorf("ProjectionTables(d=%d) accepted an out-of-range d", tc.d)
				}
				return
			}
			if cerr != nil || terr != nil {
				t.Fatalf("unexpected errors: Projections=%v ProjectionTables=%v", cerr, terr)
			}
			if tc.maxTables <= 0 && len(combos) != tc.want {
				t.Errorf("Projections(%d) = %d combos, want %d", tc.d, len(combos), tc.want)
			}
			if len(tables) != tc.want {
				t.Errorf("ProjectionTables(d=%d, max=%d) = %d tables, want %d",
					tc.d, tc.maxTables, len(tables), tc.want)
			}
			for _, tbl := range tables {
				if tbl.Dimensions() != tc.d || tbl.Len() != base.Len() {
					t.Errorf("projection shape %dx%d, want %dx%d",
						tbl.Len(), tbl.Dimensions(), base.Len(), tc.d)
				}
			}
		})
	}
}
