package generalize

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV renders a published table as CSV. The header is the QI attribute
// names followed by the sensitive attribute name, matching table.WriteCSV, so
// a generalized release round-trips through table.ReadCSV: suppressed values
// become the categorical label "*" and sub-domains become "{v1,v2,...}"
// labels. Rows appear in source-table order, which makes the output a
// deterministic function of (source table, partition) — the job server's
// result cache and its equivalence tests rely on that.
//
// Every row of a group prints the same QI prefix, so each group's prefix is
// rendered once from the group's cell slice, and each SA label once; both go
// through csv.Writer, so quoting is encoding/csv's. The rows are then
// assembled from those pieces. Their spans add up to the release's exact
// size, which a w with a Grow(int) method (*bytes.Buffer, *strings.Builder)
// reserves before the first write.
func WriteCSV(w io.Writer, g *Generalized) error {
	src := g.Source
	sch := src.Schema()
	groups := g.Partition.Groups
	var text bytes.Buffer
	cw := csv.NewWriter(&text)
	// render appends one record to text and returns the span of its bytes;
	// writes to a bytes.Buffer cannot fail.
	render := func(rec []string) [2]int {
		start := text.Len()
		_ = cw.Write(rec)
		cw.Flush()
		return [2]int{start, text.Len()}
	}
	header := render(append(sch.QINames(), sch.SA().Name()))
	size := header[1] - header[0]

	// prefix[gi] is the span of group gi's QI cells, its record's '\n'
	// turned into the ',' that precedes the SA field.
	prefix := make([][2]int, len(groups))
	groupOf := make([]int32, src.Len())
	rec := make([]string, src.Dimensions())
	for gi, rows := range groups {
		for j, c := range g.Cells[rows[0]] {
			rec[j] = c.Label(sch.QI(j))
		}
		prefix[gi] = render(rec)
		size += len(rows) * (prefix[gi][1] - prefix[gi][0])
		for _, r := range rows {
			groupOf[r] = int32(gi)
		}
	}
	sa := src.SAView()
	saSpan := make([][2]int, sch.SA().Cardinality())
	for _, v := range sa {
		if saSpan[v][1] == 0 {
			saSpan[v] = render([]string{sch.SA().Label(v)})
		}
		size += saSpan[v][1] - saSpan[v][0]
	}
	b := text.Bytes()
	for _, p := range prefix {
		b[p[1]-1] = ','
	}
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(size)
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(b[header[0]:header[1]]); err != nil {
		return fmt.Errorf("generalize: writing CSV header: %w", err)
	}
	for i, v := range sa {
		p, s := prefix[groupOf[i]], saSpan[v]
		if _, err := bw.Write(b[p[0]:p[1]]); err != nil {
			return fmt.Errorf("generalize: writing CSV row %d: %w", i, err)
		}
		if _, err := bw.Write(b[s[0]:s[1]]); err != nil {
			return fmt.Errorf("generalize: writing CSV row %d: %w", i, err)
		}
	}
	return bw.Flush()
}
