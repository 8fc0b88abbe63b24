package audit_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"ldiv"
	"ldiv/internal/audit"
	"ldiv/internal/dataset"
	"ldiv/internal/table"
)

// checkOracle fails unless rep, the production auditor's report on a
// generalized release, encodes to the same JSON as the report of the
// per-row oracle (audit.VerifyGeneralizedOracle) on the same input.
func checkOracle(t testing.TB, tab *table.Table, release []byte, opts audit.Options, rep *audit.Report) {
	t.Helper()
	want, err := audit.VerifyGeneralizedOracle(tab, bytes.NewReader(release), opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantJSON) {
		t.Fatalf("report differs from the oracle's\n got: %.2000s\nwant: %.2000s", got, wantJSON)
	}
}

// TestVerifyGeneralizedHostileMatchesOracle audits a release in the
// publish-wide shape (SAL rows with all seven QI columns, tp at l=4) with
// every "*" replaced by "?", so every suppressed cell is an unknown-value
// violation, at three recording caps: the default, one, and unlimited.
func TestVerifyGeneralizedHostileMatchesOracle(t *testing.T) {
	sal, err := dataset.Generate("sal", dataset.Config{Rows: 10000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, _, err := ldiv.AnonymizeWith(sal, 4, "tp")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		t.Fatal(err)
	}
	hostile := bytes.ReplaceAll(b.Bytes(), []byte("*"), []byte("?"))
	if bytes.Equal(hostile, b.Bytes()) {
		t.Fatal("the release suppresses no cell; nothing to corrupt")
	}
	for _, max := range []int{0, 1, -1} {
		opts := audit.Options{L: 4, MaxViolations: max}
		rep, err := audit.VerifyGeneralized(sal, bytes.NewReader(hostile), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK || rep.ViolationCount < 1000 {
			t.Fatalf("MaxViolations=%d: hostile release gave ok=%v with %d violations", max, rep.OK, rep.ViolationCount)
		}
		checkOracle(t, sal, hostile, opts, rep)
	}
}
