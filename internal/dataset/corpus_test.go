package dataset

import (
	"testing"

	"ldiv/internal/eligibility"
)

// TestRegistryShape pins the catalog contract: registration order starts
// with the census families ("sal" and "occ", the tables every figure runs on),
// every name is unique kebab-case, and Lookup is case-insensitive.
func TestRegistryShape(t *testing.T) {
	names := Families()
	if len(names) < 7 {
		t.Fatalf("catalog has %d families, want at least 7", len(names))
	}
	if names[0] != "sal" || names[1] != "occ" {
		t.Errorf("catalog starts %v, want sal, occ first", names[:2])
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate family %q", name)
		}
		seen[name] = true
		f, ok := Lookup(name)
		if !ok || f.Name != name {
			t.Errorf("Lookup(%q) failed", name)
		}
		if f.Description == "" {
			t.Errorf("family %q has no description", name)
		}
	}
	if f, ok := Lookup("SAL"); !ok || f.Name != "sal" {
		t.Error("Lookup is not case-insensitive")
	}
	if _, ok := Lookup("no-such-family"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := Generate("no-such-family", Config{Rows: 10, Seed: 1}); err == nil {
		t.Error("Generate accepted an unknown name")
	}
	if got := len(Catalog()); got != len(names) {
		t.Errorf("Catalog returns %d entries, Families %d", got, len(names))
	}
}

// TestEveryFamilyValidatesAndIsDeterministic is the corpus-wide contract:
// each family generates deterministically from its seed, differs across
// seeds, and passes its own Validate self-check at several shapes.
func TestEveryFamilyValidatesAndIsDeterministic(t *testing.T) {
	for _, f := range Catalog() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			for _, cfg := range []Config{
				{Rows: 240, Seed: 1},
				{Rows: 1200, Seed: 42},
			} {
				a, err := f.Generate(cfg)
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				if err := f.Validate(a, cfg); err != nil {
					t.Fatalf("%+v: self-check failed: %v", cfg, err)
				}
				b, err := f.Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Equal(b) {
					t.Fatalf("%+v: same seed produced different tables", cfg)
				}
				c, err := f.Generate(Config{Rows: cfg.Rows, Seed: cfg.Seed + 1})
				if err != nil {
					t.Fatal(err)
				}
				if a.Equal(c) {
					t.Fatalf("%+v: different seeds produced identical tables", cfg)
				}
				// Every family must admit the corpus l range somewhere:
				// either it is 2-eligible or it documents infeasibility
				// (none of the shipped families is 2-infeasible).
				if eligibility.MaxEligibleL(a) < 2 {
					t.Fatalf("%+v: table is not even 2-eligible", cfg)
				}
			}
			if _, err := f.Generate(Config{Rows: 0}); err == nil {
				t.Error("zero rows accepted")
			}
		})
	}
}

// TestGenerateValidated pins the convenience wrapper: it validates, and it
// propagates unknown names.
func TestGenerateValidated(t *testing.T) {
	tab, err := GenerateValidated("heavytail-sa", Config{Rows: 600, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 600 {
		t.Errorf("rows = %d", tab.Len())
	}
	if _, err := GenerateValidated("bogus", Config{Rows: 10, Seed: 1}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestCorrSAProperties exercises the corr-sa knob: the default strength, a
// custom strength, and rejection of out-of-range values.
func TestCorrSAProperties(t *testing.T) {
	f, _ := Lookup("corr-sa")
	for _, rho := range []float64{0, 0.6, 1} {
		cfg := Config{Rows: 2000, Seed: 5, Correlation: rho}
		tab, err := f.Generate(cfg)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		if err := f.Validate(tab, cfg); err != nil {
			t.Errorf("rho=%v: %v", rho, err)
		}
	}
	if _, err := f.Generate(Config{Rows: 100, Seed: 1, Correlation: 1.5}); err == nil {
		t.Error("Correlation > 1 accepted")
	}
	if _, err := f.Generate(Config{Rows: 100, Seed: 1, Correlation: -0.1}); err == nil {
		t.Error("negative Correlation accepted")
	}
	// A strongly correlated table must be harder than census data: groups
	// aligned with the first QI column concentrate on one sensitive value.
	cfg := Config{Rows: 2000, Seed: 5}
	tab, err := f.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	groups := tab.GroupByQI()
	concentrated := 0
	counter := tab.SAGroupCounter()
	for _, g := range groups {
		if len(g) >= 4 && counter.MaxCount(g)*2 > len(g) {
			concentrated++
		}
	}
	if concentrated == 0 {
		t.Error("no QI-aligned group concentrates its sensitive values; correlation not materializing")
	}
}

// TestHeavyTailKnob pins the SACard override and its validation.
func TestHeavyTailKnob(t *testing.T) {
	f, _ := Lookup("heavytail-sa")
	cfg := Config{Rows: 900, Seed: 2, SACard: 1200}
	tab, err := f.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.SADomainSize(); got != 1200 {
		t.Errorf("SA domain %d, want 1200", got)
	}
	if err := f.Validate(tab, cfg); err != nil {
		t.Error(err)
	}
	if _, err := f.Generate(Config{Rows: 100, Seed: 1, SACard: 4}); err == nil {
		t.Error("tiny SACard accepted")
	}
}

// TestSACardLEdge pins the tight-eligibility edge: exactly l-eligible, not
// (l+1)-eligible, rows rounded down to a multiple of l.
func TestSACardLEdge(t *testing.T) {
	f, _ := Lookup("sa-card-l")
	for _, l := range []int{0, 2, 4} { // 0 = default 3
		cfg := Config{Rows: 100, Seed: 9, L: l}
		tab, err := f.Generate(cfg)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		want := l
		if want == 0 {
			want = 3
		}
		if got := eligibility.MaxEligibleL(tab); got != want {
			t.Errorf("l=%d: max eligible l = %d, want exactly %d", l, got, want)
		}
		if tab.Len()%want != 0 || tab.Len() == 0 || tab.Len() > 100 {
			t.Errorf("l=%d: %d rows, want a positive multiple of %d at most 100", l, tab.Len(), want)
		}
		if err := f.Validate(tab, cfg); err != nil {
			t.Errorf("l=%d: %v", l, err)
		}
	}
	if _, err := f.Generate(Config{Rows: 100, Seed: 1, L: 1}); err == nil {
		t.Error("L=1 accepted")
	}
	if _, err := f.Generate(Config{Rows: 2, Seed: 1, L: 3}); err == nil {
		t.Error("fewer rows than L accepted")
	}
}

// TestValidateCatchesForeignTables feeds each degenerate family's validator
// a table from a different family: the self-checks must actually
// discriminate, not rubber-stamp.
func TestValidateCatchesForeignTables(t *testing.T) {
	cfg := Config{Rows: 300, Seed: 11}
	cases := []struct{ validator, tableFrom string }{
		{"single-group", "one-row-groups"},
		{"one-row-groups", "single-group"},
		{"distinct-sa", "sa-card-l"},
		{"sa-card-l", "distinct-sa"},
		{"heavytail-sa", "sal"},
		{"near-duplicate", "one-row-groups"},
		{"deep-taxonomy", "sal"},
		{"corr-sa", "sal"},
	}
	for _, c := range cases {
		v, ok := Lookup(c.validator)
		if !ok {
			t.Fatalf("unknown family %q", c.validator)
		}
		tab, err := Generate(c.tableFrom, cfg)
		if err != nil {
			t.Fatalf("generating %s: %v", c.tableFrom, err)
		}
		if err := v.Validate(tab, cfg); err == nil {
			t.Errorf("%s.Validate accepted a %s table", c.validator, c.tableFrom)
		}
	}
}
