package audit_test

import (
	"bytes"
	"strings"
	"testing"

	"ldiv"
	"ldiv/internal/audit"
	"ldiv/internal/dataset"
	"ldiv/internal/table"
)

// fuzzOriginal builds the fixed original table every release fuzz input is
// verified against.
func fuzzOriginal(tb testing.TB) *table.Table {
	tb.Helper()
	tab, err := table.ReadCSV(strings.NewReader(sampleCSV), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// checkReport asserts the structural invariants every verdict must satisfy,
// whatever bytes produced it.
func checkReport(t *testing.T, rep *audit.Report) {
	t.Helper()
	if rep == nil {
		t.Fatal("nil report without an error")
	}
	if len(rep.Violations) > rep.ViolationCount {
		t.Fatalf("recorded %d violations but counted %d", len(rep.Violations), rep.ViolationCount)
	}
	if rep.OK != (rep.ViolationCount == 0) {
		t.Fatalf("ok=%v with %d violations", rep.OK, rep.ViolationCount)
	}
	if rep.OK && (!rep.Privacy || !rep.Fidelity) {
		t.Fatalf("ok verdict with failing sub-verdicts: %+v", rep)
	}
	if rep.Truncated && len(rep.Violations) >= rep.ViolationCount {
		t.Fatalf("truncated report records every violation: %+v", rep)
	}
}

// corpusFamilySeeds renders one small release per scenario-corpus family
// beyond the census pair, so the fuzzers start from the cell shapes the new
// families produce (huge sensitive domains, single groups, unique rows).
// Against the fixed fuzz original these parse as schema mismatches, which is
// exactly the frontier the mutation engine should explore outward from.
func corpusFamilySeeds(f *testing.F, anatomyRelease bool) [][2][]byte {
	f.Helper()
	var out [][2][]byte
	for _, name := range dataset.Families() {
		if name == "sal" || name == "occ" {
			continue
		}
		tab, err := dataset.Generate(name, dataset.Config{Rows: 60, Seed: 23})
		if err != nil {
			f.Fatalf("seeding from family %s: %v", name, err)
		}
		if ldiv.MaxEligibleL(tab) < 2 {
			f.Fatalf("family %s seed table is not 2-eligible", name)
		}
		if anatomyRelease {
			an, err := ldiv.Anatomize(tab, 2)
			if err != nil {
				f.Fatalf("anatomy on family %s: %v", name, err)
			}
			var qb, sb bytes.Buffer
			if err := ldiv.WriteAnatomyQITCSV(&qb, tab, an); err != nil {
				f.Fatal(err)
			}
			if err := ldiv.WriteAnatomySTCSV(&sb, tab, an); err != nil {
				f.Fatal(err)
			}
			out = append(out, [2][]byte{qb.Bytes(), sb.Bytes()})
			continue
		}
		gen, _, err := ldiv.AnonymizeWith(tab, 2, "tp")
		if err != nil {
			f.Fatalf("tp on family %s: %v", name, err)
		}
		var b bytes.Buffer
		if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
			f.Fatal(err)
		}
		out = append(out, [2][]byte{b.Bytes(), nil})
	}
	return out
}

// FuzzParseGeneralizedRelease fuzzes the generalized-release parser and
// verifier with arbitrary bytes: it must never panic and never return an
// error for in-memory input (corrupt releases are verdicts, not errors), the
// report invariants must hold, and the report must equal the per-row
// oracle's.
func FuzzParseGeneralizedRelease(f *testing.F) {
	f.Add([]byte("Age,Gender,Disease\n30,*,flu\n30,*,cold\n40,*,flu\n40,*,cold\n50,*,angina\n50,*,flu\n60,*,cold\n60,*,angina\n"))
	f.Add([]byte("Age,Gender,Disease\n{30,40},M,flu\n{30,40},F,cold\n"))
	f.Add([]byte("Age,Gender,Disease\n*,*,flu\n"))
	f.Add([]byte("Age,Sex,Disease\n30,M,flu\n"))
	f.Add([]byte("Age,Gender,Disease\n30,M\n"))
	f.Add([]byte("Age,Gender,Disease\n99,Q,zzz\n"))
	f.Add([]byte("Age,Gender,Disease\n30,\"M\"x,flu\n40,a\"b,cold\n50,*,\"angina\n60,*,flu\n"))
	f.Add([]byte("Age,Gender,Disease\n3,0M,flu\n30,M,cold\n3,0M,cold\n30,M,flu\n"))
	f.Add([]byte("Age,Gender,Disease\n\"3,0\",M,flu\n3,\"0,M\",cold\n"))
	f.Add([]byte("Age,Gender,Disease\n\"30\",M,flu\n30,M,cold\n"))
	f.Add([]byte("Age,Gender,Disease\n30,*,zzz\n30,*,yyy\n40,*,yyy\n40,*,zzz\n50,*,yyy\n50,*,flu\n60,*,zzz\n60,*,angina\n"))
	f.Add([]byte("Age,Gender,Disease\n30,*,flu\n30,*,cold\n99,*,flu\n99,*,zzz\n"))
	f.Add([]byte("\"unterminated\n"))
	f.Add([]byte(""))
	for _, seed := range corpusFamilySeeds(f, false) {
		f.Add(seed[0])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := fuzzOriginal(t)
		opts := audit.Options{L: 2}
		rep, err := audit.VerifyGeneralized(tab, bytes.NewReader(data), opts)
		if err != nil {
			t.Fatalf("in-memory verification returned an operational error: %v", err)
		}
		checkReport(t, rep)
		checkOracle(t, tab, data, opts, rep)
	})
}

// FuzzParseAnatomyRelease is the same contract for the two-table release.
func FuzzParseAnatomyRelease(f *testing.F) {
	f.Add(
		[]byte("Row,Age,Gender,GroupID\n0,30,M,0\n1,30,F,0\n2,40,M,1\n3,40,F,1\n4,50,M,2\n5,50,F,2\n6,60,M,3\n7,60,F,3\n"),
		[]byte("GroupID,Disease,Count\n0,flu,1\n0,cold,1\n1,flu,1\n1,cold,1\n2,angina,1\n2,flu,1\n3,cold,1\n3,angina,1\n"),
	)
	f.Add([]byte("Row,Age,Gender,GroupID\n0,30,M,99\n"), []byte("GroupID,Disease,Count\n0,flu,0\n"))
	f.Add([]byte("Row,Age,Gender,GroupID\nx,30,M,y\n"), []byte("GroupID,Disease,Count\n"))
	f.Add([]byte(""), []byte(""))
	for _, seed := range corpusFamilySeeds(f, true) {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, qit, st []byte) {
		tab := fuzzOriginal(t)
		rep, err := audit.VerifyAnatomy(tab, bytes.NewReader(qit), bytes.NewReader(st), audit.Options{L: 2})
		if err != nil {
			t.Fatalf("in-memory verification returned an operational error: %v", err)
		}
		checkReport(t, rep)
	})
}
