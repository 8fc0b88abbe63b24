package generalize

import (
	"io"
	"strings"
	"testing"

	"ldiv/internal/table"
)

// csvTable builds a 4-row, 2-QI table whose suppression under the given
// partition is easy to reason about.
func csvTable(t *testing.T) *table.Table {
	t.Helper()
	age := table.NewAttribute("Age")
	gender := table.NewAttribute("Gender")
	disease := table.NewAttribute("Disease")
	schema, err := table.NewSchema([]*table.Attribute{age, gender}, disease)
	if err != nil {
		t.Fatal(err)
	}
	tbl := table.New(schema)
	for _, row := range [][3]string{
		{"30", "M", "flu"},
		{"30", "F", "cold"},
		{"40", "M", "flu"},
		{"40", "M", "cold"},
		{"50", "F", "angina"},
	} {
		if err := tbl.AppendLabels([]string{row[0], row[1]}, row[2]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestWriteCSVRendersStarsAndRoundTrips(t *testing.T) {
	tbl := csvTable(t)
	// Group {0,1} agrees on Age but not Gender; group {2,3} agrees on both.
	g, err := Suppress(tbl, NewPartition([][]int{{0, 1}, {2, 3}, {4}}))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, g); err != nil {
		t.Fatal(err)
	}
	want := "Age,Gender,Disease\n30,*,flu\n30,*,cold\n40,M,flu\n40,M,cold\n50,F,angina\n"
	if b.String() != want {
		t.Fatalf("WriteCSV output:\n%q\nwant:\n%q", b.String(), want)
	}

	// The release re-reads as a categorical table with '*' as a label.
	back, err := table.ReadCSV(strings.NewReader(b.String()), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip lost rows: %d of %d", back.Len(), tbl.Len())
	}
	if got := back.QILabel(0, 1); got != "*" {
		t.Errorf("suppressed cell re-read as %q, want \"*\"", got)
	}
}

func TestWriteCSVRendersSubDomains(t *testing.T) {
	tbl := csvTable(t)
	g, err := MultiDimensional(tbl, NewPartition([][]int{{0, 1, 2, 3}, {4}}))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteCSV(&b, g); err != nil {
		t.Fatal(err)
	}
	// Gender covers the full {M,F} domain and is rendered as a star; Age is
	// the proper sub-domain {30,40} of {30,40,50}. The CSV writer must quote
	// the comma inside the sub-domain label.
	if !strings.Contains(b.String(), "\"{30,40}\"") {
		t.Errorf("sub-domain cell not rendered/quoted: %q", b.String())
	}
}

// growRecorder is a strings.Builder that records the reservations made on it.
type growRecorder struct {
	strings.Builder
	grown []int
}

func (g *growRecorder) Grow(n int) {
	g.grown = append(g.grown, n)
	g.Builder.Grow(n)
}

// TestWriteCSVReservesTheRelease checks that a writer with a Grow method is
// asked, once and before any write, for exactly the release's size, with
// quoted sub-domain cells in it, and gets the same bytes a writer without
// one does.
func TestWriteCSVReservesTheRelease(t *testing.T) {
	tbl := csvTable(t)
	g, err := MultiDimensional(tbl, NewPartition([][]int{{0, 1}, {2, 3, 4}}))
	if err != nil {
		t.Fatal(err)
	}
	var rec growRecorder
	if err := WriteCSV(&rec, g); err != nil {
		t.Fatal(err)
	}
	if len(rec.grown) != 1 || rec.grown[0] != rec.Len() {
		t.Fatalf("reservations %v for a %d-byte release", rec.grown, rec.Len())
	}
	var plain strings.Builder
	if err := WriteCSV(struct{ io.Writer }{&plain}, g); err != nil {
		t.Fatal(err)
	}
	if plain.String() != rec.String() {
		t.Fatalf("release through Grow:\n%q\nwithout:\n%q", rec.String(), plain.String())
	}
	if !strings.Contains(plain.String(), `"{40,50}"`) {
		t.Errorf("release has no quoted sub-domain cell: %q", plain.String())
	}
}
