package generalize_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"testing"

	"ldiv"
	"ldiv/internal/dataset"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// writeCSVPerRow is the row-by-row renderer WriteCSV replaced, kept as its
// oracle: every row's cells are labelled and written through csv.Writer.
func writeCSVPerRow(w io.Writer, g *generalize.Generalized) error {
	cw := csv.NewWriter(w)
	sch := g.Source.Schema()
	header := append(sch.QINames(), sch.SA().Name())
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("generalize: writing CSV header: %w", err)
	}
	d := g.Source.Dimensions()
	rec := make([]string, d+1)
	for i := 0; i < g.Source.Len(); i++ {
		for j := 0; j < d; j++ {
			rec[j] = g.Cells[i][j].Label(sch.QI(j))
		}
		rec[d] = g.Source.SALabel(i)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("generalize: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// checkRenderMatchesOracle fails t unless WriteCSV and the per-row oracle
// render g to the same bytes.
func checkRenderMatchesOracle(t *testing.T, name string, g *generalize.Generalized) {
	t.Helper()
	var got, want bytes.Buffer
	if err := generalize.WriteCSV(&got, g); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := writeCSVPerRow(&want, g); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: per-group render differs from the per-row oracle\ngot:\n%q\nwant:\n%q", name, got.Bytes(), want.Bytes())
	}
}

// TestWriteCSVMatchesPerRowOracle renders the release of every dataset
// family under every generalizing algorithm at l = 2, 3, 4 both ways.
func TestWriteCSVMatchesPerRowOracle(t *testing.T) {
	compared := 0
	for _, family := range dataset.Families() {
		tbl, err := dataset.Generate(family, dataset.Config{Rows: 240, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"tp", "tp+", "hilbert", "tds", "mondrian", "incognito"} {
			for l := 2; l <= 4; l++ {
				if !ldiv.IsEligible(tbl, l) {
					continue
				}
				gen, _, err := ldiv.AnonymizeWith(tbl, l, algo)
				if err != nil {
					t.Fatalf("%s/%s/l=%d: %v", family, algo, l, err)
				}
				checkRenderMatchesOracle(t, fmt.Sprintf("%s/%s/l=%d", family, algo, l), gen)
				compared++
			}
		}
	}
	if want := 6 * 3 * 5; compared < want {
		t.Fatalf("compared %d releases, want at least %d", compared, want)
	}
}

// TestWriteCSVQuotesLikeOracle renders hand-built releases whose exact, star
// and set cells and SA values need encoding/csv's quoting rules.
func TestWriteCSVQuotesLikeOracle(t *testing.T) {
	awkward := []string{"a,b", `say "hi"`, " lead", "cr\r\nlf", `\.`, "", "plain", "lf\nonly"}
	x, err := table.NewAttributeWithDomain("X,1", awkward)
	if err != nil {
		t.Fatal(err)
	}
	y, err := table.NewAttributeWithDomain(`"Y"`, []string{"p", "q, r"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := table.NewAttributeWithDomain(" S", awkward)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := table.NewSchema([]*table.Attribute{x, y}, s)
	if err != nil {
		t.Fatal(err)
	}
	tb := table.NewBuilder(schema, 0)
	for i := 0; i < 2*len(awkward); i++ {
		tb.MustAppendRow([]int{i % len(awkward), i / len(awkward)}, (3*i+1)%len(awkward))
	}
	partitions := map[string][][]int{
		"singletons":  nil,
		"pairs":       {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}},
		"interleaved": {{0, 5, 10, 15}, {1, 6, 11}, {2, 7, 12}, {3, 8, 13}, {4, 9, 14}},
		"one group":   {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
		"reversed":    {{15, 14}, {13, 12, 11}, {10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
	}
	tbl := tb.Build()
	for r := 0; r < tbl.Len(); r++ {
		partitions["singletons"] = append(partitions["singletons"], []int{r})
	}
	for name, groups := range partitions {
		p := generalize.NewPartition(groups)
		sup, err := generalize.Suppress(tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		checkRenderMatchesOracle(t, name+"/suppress", sup)
		md, err := generalize.MultiDimensional(tbl, p)
		if err != nil {
			t.Fatal(err)
		}
		checkRenderMatchesOracle(t, name+"/multidimensional", md)
	}
}
