package audit

import (
	"strings"
	"testing"

	"ldiv/internal/table"
)

// TestParseGeneralizedGroupKey checks that rows share a group exactly when
// their unescaped QI fields are equal, whichever key form each row takes.
func TestParseGeneralizedGroupKey(t *testing.T) {
	src, err := table.ReadCSV(strings.NewReader("Age,Gender,Disease\n30,M,flu\n"), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name, a, b string
		same       bool
	}{
		// Both spans read "3,0,M", but the fields differ.
		{"comma in a quoted field", `"3,0",M,flu`, `3,"0,M",flu`, false},
		{"quoted twin", `"30",M,flu`, `30,M,flu`, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			release := "Age,Gender,Disease\n" + tc.a + "\n" + tc.b + "\n"
			rep := newReporter(KindGeneralized, Options{L: 2}, 2)
			rel, ok, err := parseGeneralized(src.Schema(), 2, strings.NewReader(release), rep)
			if err != nil || !ok || len(rel.rows) != 2 {
				t.Fatalf("parse: ok=%v err=%v, %d rows of 2", ok, err, len(rel.rows))
			}
			if same := rel.rows[0].group == rel.rows[1].group; same != tc.same {
				t.Errorf("rows share a group: %v, want %v", same, tc.same)
			}
		})
	}
}
