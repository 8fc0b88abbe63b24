package table

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// readCSVOracle is the encoding/csv-based ReadCSV the byte scanner replaced,
// kept as the differential oracle. It carries the scanner's two deliberate
// changes: errors name the physical line a record starts on (through the
// ParseError's StartLine or csv.Reader.FieldPos), and a selected column the
// header names twice is rejected.
func readCSVOracle(r io.Reader, qiColumns []string, saColumn string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	colIdx := make(map[string]int, len(header))
	named := make(map[string]int, len(header))
	for i, name := range header {
		colIdx[name] = i
		named[name]++
	}
	column := func(name string) (int, error) {
		idx, ok := colIdx[name]
		if !ok {
			return 0, fmt.Errorf("table: CSV has no column %q", name)
		}
		if named[name] > 1 {
			return 0, fmt.Errorf("table: CSV header names column %q more than once", name)
		}
		return idx, nil
	}
	qiIdx := make([]int, len(qiColumns))
	qiAttrs := make([]*Attribute, len(qiColumns))
	for i, name := range qiColumns {
		idx, err := column(name)
		if err != nil {
			return nil, err
		}
		qiIdx[i] = idx
		qiAttrs[i] = NewAttribute(name)
	}
	saIdx, err := column(saColumn)
	if err != nil {
		return nil, err
	}
	schema, err := NewSchema(qiAttrs, NewAttribute(saColumn))
	if err != nil {
		return nil, err
	}
	tb := NewBuilder(schema, 0)
	labels := make([]string, len(qiColumns))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var line int
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				line = pe.StartLine
			} else {
				line, _ = cr.FieldPos(0)
			}
			return nil, fmt.Errorf("table: reading CSV line %d: %w", line, err)
		}
		line, _ := cr.FieldPos(0)
		for i, idx := range qiIdx {
			if idx >= len(rec) {
				return nil, fmt.Errorf("table: CSV line %d has %d fields, need column %d", line, len(rec), idx+1)
			}
			labels[i] = rec[idx]
		}
		if saIdx >= len(rec) {
			return nil, fmt.Errorf("table: CSV line %d has %d fields, need column %d", line, len(rec), saIdx+1)
		}
		if err := tb.AppendLabels(labels, rec[saIdx]); err != nil {
			return nil, err
		}
	}
	return tb.Build(), nil
}

// sameTables reports how two tables differ in codes or label dictionaries,
// or "" when they agree on both.
func sameTables(a, b *Table) string {
	if !a.Equal(b) {
		return "tables differ in their codes"
	}
	attrs := func(t *Table) []*Attribute { return append(t.Schema().QIAttributes(), t.Schema().SA()) }
	for j, x := range attrs(a) {
		y := attrs(b)[j]
		if x.Name() != y.Name() || !slices.Equal(x.Labels(), y.Labels()) {
			return fmt.Sprintf("attribute %d: %q%q vs %q%q", j, x.Name(), x.Labels(), y.Name(), y.Labels())
		}
	}
	return ""
}

// checkAgainstOracle fails t unless ReadCSV and readCSVOracle agree on data:
// the same table with the same dictionaries, or the same error text. ReadCSV
// reads data three times: from a *bytes.Reader, whose length sizes the table
// up front; from a reader that hides its length, so the table grows as it
// reads; and from a *bytes.Reader in chunks of one line on three workers, so
// a quote-free body of two lines or more is read in chunks.
func checkAgainstOracle(t *testing.T, data []byte, qi []string, sa string) {
	t.Helper()
	want, wantErr := readCSVOracle(bytes.NewReader(data), qi, sa)
	for _, read := range []struct {
		name string
		read func() (*Table, error)
	}{
		{"sized", func() (*Table, error) { return ReadCSV(bytes.NewReader(data), qi, sa) }},
		{"unsized", func() (*Table, error) { return ReadCSV(struct{ io.Reader }{bytes.NewReader(data)}, qi, sa) }},
		{"chunked", func() (*Table, error) { return readCSV(bytes.NewReader(data), qi, sa, 3, 1) }},
	} {
		got, gotErr := read.read()
		switch {
		case gotErr != nil || wantErr != nil:
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("input %q, %s read:\nReadCSV error: %v\n oracle error: %v", data, read.name, gotErr, wantErr)
			}
		default:
			if diff := sameTables(got, want); diff != "" {
				t.Fatalf("input %q, %s read: %s", data, read.name, diff)
			}
		}
	}
}

// readCSVSeeds are the hand-written seeds of both ReadCSV fuzz targets.
var readCSVSeeds = []string{
	"A,B,S\n1,2,x\n3,4,y\n",
	"A,B,S\n",
	"S,B,A\nx,2,1\n",
	"A,B,S,Extra\n1,2,x,ignored\n",
	"A,B,S\n\"a,b\",\"c\nd\",\"*\"\n",
	"B,A\n1,2\n",
	"A;B;S\n1;2;3\n",
	"",
}

// differentialSeeds cover the corners of encoding/csv's grammar the scanner
// must reproduce.
var differentialSeeds = []string{
	"A,B,S\n\"1\",\"2\",\"x\"\n",                     // quoted fields
	"A,B,S\n\"a\"\"b\",\"\"\"\",\"x\"\"\"\n",         // "" escapes
	"A,B,S\r\n\"a\r\nb\",2,\"x\r\n\"\r\n",            // CRLF inside quotes
	"A,B,S\r\n1,2,x\r\n3,4,y\r\n",                    // CRLF outside quotes
	"A,B,S\n1\r2,3,x\n\"a\rb\",\r,y\n",               // lone \r
	"A,B,S\n\n\n1,2,x\n\n3,4,y\n\n",                  // blank lines
	"A,B,S\r\n\r\n1,2,x\r\n\r\n",                     // CRLF blank lines
	"A,B,S\n1,2\n",                                   // ragged: too short
	"A,B,S\n1,2,x,y,z\n1,2,x\n",                      // ragged: long then short
	"A,B,S\n\n\n1,2\n",                               // short record after blank lines
	"A,B,S\n1,a\"b,x\n",                              // bare quote
	"A,B,S\n\"a\"b,2,x\n",                            // quote inside a quoted field
	"A,B,S\n\"x\ny\",1,s\n1,\"2\n",                   // EOF inside a quote
	"A,B,S\r\n1,2,3\r\n\r\n1,\"2\n",                  // EOF inside a quote after CRLF
	"A,B,S\n1,2,x\r",                                 // trailing \r at EOF
	"A,B,S\n1,2,\"x\"\r",                             // trailing \r at EOF after a quote
	"A,B,S\n1,2,x",                                   // no final newline
	"A,B,S\n\"\"",                                    // empty quoted field at EOF
	"A,A,B,S\n1,2,3,x\n",                             // ambiguous selected column
	"A,B,S,X,X\n1,2,x,3,4\n",                         // duplicate unselected column
	"A,B,S\n" + strings.Repeat("a", 5000) + ",2,x\n", // record longer than the buffer
	"A,B,S\n\"" + strings.Repeat("q\r\n", 2000) + "\",2,x\r\n",
	// Quote-free lines and lines with a quote side by side, so records move
	// between the scanner's two paths.
	"A,B,S\n1,2,x\n3,\"a\nb\nc\",y\n5,6,z\n",               // quoted field spanning lines between quote-free ones
	"A,B,S\r\n1,2,x\r\n3,\"4\",y\r\n5,6,z\r\n",             // CRLF on quote-free lines
	"A,B,S\n1,2,x\n\"3\",4,y\n5,6,z\r",                     // trailing \r at EOF on a quote-free line
	"A,B,S\n\n1,2,x\n\n\n\"3\",4,y\n\n5,6,z\n\n",           // blank lines between records
	"A,B,S\n" + strings.Repeat("ab,", 3000) + "x\n1,2,y\n", // quote-free line longer than the buffer
	"A,B,S\n,,\n,\"\",\n,,",                                // empty fields on both paths
}

// fuzzCorpus returns the inputs of FuzzReadCSV's checked-in corpus.
func fuzzCorpus(t testing.TB) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadCSV", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, body, ok := strings.Cut(string(b), "\n")
		body = strings.TrimSpace(body)
		if !ok || !strings.HasPrefix(body, "[]byte(") || !strings.HasSuffix(body, ")") {
			t.Fatalf("%s: not a []byte corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	if len(out) == 0 {
		t.Fatal("FuzzReadCSV corpus is empty")
	}
	return out
}

// FuzzReadCSVDifferential checks the byte scanner against the encoding/csv
// oracle on arbitrary bytes: both readers must build equal tables with
// identical label dictionaries, or fail with the same error text. Each input
// is read under two column selections, in header order and reversed.
func FuzzReadCSVDifferential(f *testing.F) {
	for _, s := range append(readCSVSeeds, differentialSeeds...) {
		f.Add([]byte(s))
	}
	for _, b := range fuzzCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data, []string{"A", "B"}, "S")
		checkAgainstOracle(t, data, []string{"S", "B"}, "A")
	})
}

// scannerStreamSeeds put a syntax error in the middle of a record stream,
// so the records after it must come out of both readers the same way.
var scannerStreamSeeds = []string{
	"A,B,S\n1,2,x\n\"a\"b,2,x\n3,4,y\n",                // bad quote mid-stream
	"A,B,S\n1,a\"b,x\n\n3,4,y\r\n5,6,z\n",              // bare quote mid-stream
	"A,B,S\n1,\"x\ny\"z,s\n3,4,y\n\"ok\",5,6\n",        // bad quote inside a multi-line field
	"A,B,S\n1,2,x\n\"a\nb\"\"c,2,x\n3,4\n",             // escaped quote then a missing close
	"A,B,S\n1,2,x\n3,\"4\n5,6,z\n",                     // EOF inside a quote after good records
	"1,a\"b\n\"c\"d\n\"e\n",                            // every record broken
	"A,B,S\n1,2,x\n12,ab\"cd,x\n3,4,y\n",               // bare quote in an otherwise quote-free line
	"A,B,S\r\n1,\"x\r\ny\",z\r\n2,b\"c,x\r\n3,4,y\r\n", // multi-line field, then a bare quote, over CRLF
}

// FuzzRecordScannerDifferential checks the record scanner against
// encoding/csv's Reader with a variable field count over a whole stream:
// every Scan must return the Reader's fields, or its error text, with the
// same start line, and both must keep going after a *csv.ParseError until
// they reach EOF together.
func FuzzRecordScannerDifferential(f *testing.F) {
	for _, s := range slices.Concat(readCSVSeeds, differentialSeeds, scannerStreamSeeds) {
		f.Add([]byte(s))
	}
	for _, b := range fuzzCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewRecordScanner(bytes.NewReader(data))
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		for n := 0; ; n++ {
			if n > len(data)+1 {
				t.Fatalf("no EOF after %d records", n)
			}
			line, err := s.Scan()
			rec, want := cr.Read()
			if want == io.EOF || err == io.EOF {
				if err != want {
					t.Fatalf("record %d: scanner %v, encoding/csv %v", n, err, want)
				}
				return
			}
			if (err == nil) != (want == nil) || err != nil && err.Error() != want.Error() {
				t.Fatalf("record %d: scanner error %v, encoding/csv error %v", n, err, want)
			}
			var perr *csv.ParseError
			if errors.As(want, &perr) {
				if line != perr.StartLine {
					t.Fatalf("record %d: scanner starts on line %d, encoding/csv on %d", n, line, perr.StartLine)
				}
				continue
			}
			if want != nil {
				t.Fatalf("record %d: unexpected encoding/csv error %v", n, want)
			}
			if wantLine, _ := cr.FieldPos(0); line != wantLine {
				t.Fatalf("record %d: scanner starts on line %d, encoding/csv on %d", n, line, wantLine)
			}
			got := make([]string, s.Fields())
			for i := range got {
				got[i] = string(s.Field(i))
			}
			if !slices.Equal(got, rec) {
				t.Fatalf("record %d: scanner %q, encoding/csv %q", n, got, rec)
			}
			for k := 1; k <= len(rec); k++ {
				if span, _ := s.Span(k); string(span) != strings.Join(rec[:k], ",") {
					t.Fatalf("record %d: Span(%d) = %q, want the first %d of %q joined", n, k, span, k, rec)
				}
			}
			if _, quoteFree := s.Span(1); quoteFree && slices.ContainsFunc(rec, func(f string) bool { return strings.ContainsAny(f, ",\"") }) {
				t.Fatalf("record %d: quote-free record %q has a field with a comma or quote", n, rec)
			}
		}
	})
}

// TestRecordScannerSpan checks that Span joins a record's first fields with
// commas and reports whether the record was quote-free.
func TestRecordScannerSpan(t *testing.T) {
	tests := []struct {
		name, in  string
		quoteFree bool
	}{
		{"quote-free", "30,M,flu\n", true},
		{"quoted", "\"3,0\",\"M\"\"\",flu\n", false},
		{"crlf", "30,M,flu\r\n", true},
		{"multi-line quoted field", "30,\"M\r\nF\",flu\n", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := csv.NewReader(strings.NewReader(tc.in)).Read()
			if err != nil {
				t.Fatal(err)
			}
			s := NewRecordScanner(strings.NewReader(tc.in))
			if _, err := s.Scan(); err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= len(rec); n++ {
				span, quoteFree := s.Span(n)
				if want := strings.Join(rec[:n], ","); string(span) != want || quoteFree != tc.quoteFree {
					t.Errorf("Span(%d) = %q, %v; want %q, %v", n, span, quoteFree, want, tc.quoteFree)
				}
			}
		})
	}
}

func TestReadCSVLineNumbers(t *testing.T) {
	tests := []struct {
		name, in, want string
	}{
		{"blank lines", "A,B,S\n\n\n1,2\n",
			"table: CSV line 4 has 2 fields, need column 3"},
		{"CRLF blank line", "A,B,S\r\n1,2,3\r\n\r\n1,\"2\n",
			"table: reading CSV line 4: parse error on line 4, column 6: extraneous or missing \" in quoted-field"},
		{"multi-line quoted field", "A,B,S\n\"x\ny\",1,s\n1,2\n",
			"table: CSV line 4 has 2 fields, need column 3"},
		{"error inside a multi-line field", "A,B,S\n1,\"x\ny\"z,s\n",
			"table: reading CSV line 2: record on line 2; parse error on line 3, column 2: extraneous or missing \" in quoted-field"},
		{"bare quote after CRLF blank lines", "A,B,S\r\n\r\n\r\n1,a\"b,x\r\n",
			"table: reading CSV line 4: parse error on line 4, column 4: bare \" in non-quoted-field"},
		{"header parse error", "A,\"B\"x,S\n",
			"table: reading CSV header: parse error on line 1, column 5: extraneous or missing \" in quoted-field"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(tc.in), []string{"A", "B"}, "S")
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v\nwant %s", err, tc.want)
			}
			checkAgainstOracle(t, []byte(tc.in), []string{"A", "B"}, "S")
		})
	}
}

func TestReadCSVDuplicateHeader(t *testing.T) {
	in := "Age,Age,Income,Note,Note\n30,99,a,x,y\n"
	for _, tc := range []struct {
		qi       []string
		sa, want string
	}{
		{[]string{"Age"}, "Income", `table: CSV header names column "Age" more than once`},
		{[]string{"Income"}, "Age", `table: CSV header names column "Age" more than once`},
		{[]string{"Income"}, "Note", `table: CSV header names column "Note" more than once`},
	} {
		_, err := ReadCSV(strings.NewReader(in), tc.qi, tc.sa)
		if err == nil || err.Error() != tc.want {
			t.Errorf("qi %v sa %s: error %v, want %s", tc.qi, tc.sa, err, tc.want)
		}
		checkAgainstOracle(t, []byte(in), tc.qi, tc.sa)
	}
	// Duplicate names on columns nobody selects stay allowed.
	tbl, err := ReadCSV(strings.NewReader("Zip,Age,Zip,Income\n1,30,2,a\n"), []string{"Age"}, "Income")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.QILabel(0, 0) != "30" || tbl.SALabel(0) != "a" {
		t.Errorf("read %q/%q, want 30/a", tbl.QILabel(0, 0), tbl.SALabel(0))
	}
}

// TestReadCSVReadError checks that an I/O error from the underlying reader
// is reported with the line its record starts on, like a syntax error.
func TestReadCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, tc := range []struct{ in, want string }{
		{"", "table: reading CSV header: boom"},
		{"A,B,S\n1,2,x\n\n3,", "table: reading CSV line 4: boom"},
	} {
		r := io.MultiReader(strings.NewReader(tc.in), iotest.ErrReader(boom))
		_, err := ReadCSV(r, []string{"A", "B"}, "S")
		if !errors.Is(err, boom) || err.Error() != tc.want {
			t.Errorf("input %q: error %v, want %s", tc.in, err, tc.want)
		}
		r = io.MultiReader(strings.NewReader(tc.in), iotest.ErrReader(boom))
		if _, err := readCSVOracle(r, []string{"A", "B"}, "S"); err == nil || err.Error() != tc.want {
			t.Errorf("input %q: oracle error %v, want %s", tc.in, err, tc.want)
		}
	}
}

// TestReadCSVReservation checks the rows ReadCSV reserves from a reader that
// reports its length: exactly min(lines+1, (unread+1)/need) for the unread
// bytes, which holds every record read, even where blank lines or a quoted
// field spanning lines make the line count a poor bound.
func TestReadCSVReservation(t *testing.T) {
	const need = 3 // A, B and S are the first three columns
	for _, tc := range []struct {
		name, in string
		skip     int  // bytes read off the reader before ReadCSV
		str      bool // read through a *strings.Reader
	}{
		{name: "LF", in: "A,B,S\n1,2,x\n3,4,y\n"},
		{name: "CRLF", in: "A,B,S\r\n1,2,x\r\n3,4,y\r\n"},
		{name: "no trailing newline", in: "A,B,S\n1,2,x\n3,4,y"},
		{name: "blank lines", in: "A,B,S\n\n\n1,2,x\n\n3,4,y\n\n"},
		{name: "quoted multi-line field", in: "A,B,S\n1,\"a\nb\nc\",x\n3,4,y\n"},
		{name: "header only", in: "A,B,S\n"},
		{name: "header only, no newline", in: "A,B,S"},
		{name: "partly consumed", in: "junk\nA,B,S\n1,2,x\n3,4,y\n", skip: len("junk\n")},
		{name: "strings.Reader", in: "A,B,S,T\n1,2,x,t\n3,4,y,u\n", str: true},
		{name: "64k blank lines", in: "A,B,S\n" + strings.Repeat("\n", 1<<16) + "1,2,x\n"},
		{name: "64k-line quoted field", in: "A,B,S\n1,\"" + strings.Repeat("q\n", 1<<16) + "\",x\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r io.Reader = bytes.NewReader([]byte(tc.in))
			if tc.str {
				r = strings.NewReader(tc.in)
			}
			if _, err := io.ReadFull(r, make([]byte, tc.skip)); err != nil {
				t.Fatal(err)
			}
			body := tc.in[tc.skip:]
			got, err := ReadCSV(r, []string{"A", "B"}, "S")
			if err != nil {
				t.Fatal(err)
			}
			want := min(strings.Count(body, "\n")+1, (len(body)+1)/need)
			if cap(got.sa) != want || got.Len() > cap(got.sa) {
				t.Fatalf("%d rows read into a reservation of %d, want %d", got.Len(), cap(got.sa), want)
			}
			checkAgainstOracle(t, []byte(body), []string{"A", "B"}, "S")
		})
	}
}

// TestReadCSVChunks reads quote-free bodies in chunks of a few lines on three
// workers and checks that each gives the table, dictionaries and error text
// of a sequential read, and of the oracle; a quoted body must not be cut.
func TestReadCSVChunks(t *testing.T) {
	var big strings.Builder
	big.WriteString("A,B,S\n")
	for i := range 3 * ingestSpanLines {
		fmt.Fprintf(&big, "a%d,b%d,s%d\n", i*7919%1000, i%300, i%11)
	}
	for _, tc := range []struct {
		name, in, err string
		floor         int
		cut           bool // the body must be read in chunks
	}{
		{name: "CRLF", in: "A,B,S\r\n1,2,x\r\n3,4,y\r\n5,6,z\r\n7,8,x\r\n", floor: 2, cut: true},
		{name: "blank lines around a cut", in: "A,B,S\n1,2,x\n\n\n\n3,4,y\n5,6,z\n\r\n7,8,w\n", floor: 2, cut: true},
		{name: "no final newline", in: "A,B,S\n1,2,x\n3,4,y\n5,6,z", floor: 1, cut: true},
		{name: "trailing CR at EOF", in: "A,B,S\n1,2,x\n3,4,y\n5,6,z\r", floor: 1, cut: true},
		{name: "labels new in later chunks", in: "A,B,S\n1,2,x\n1,2,x\n1,2,x\n3,4,y\n1,5,z\n6,2,x\n", floor: 2, cut: true},
		{name: "blank lines before the header", in: "\n\n\nA,B,S\n1,2,x\n3,4,y\n5,6,z\n", floor: 2, cut: true},
		{
			name: "short record in chunk 3", floor: 2, cut: true,
			in:  "A,B,S\n1,2,x\n3,4,y\n\n5,6,z\n7,8,x\n9,9\n1,1,y\n",
			err: "table: CSV line 7 has 2 fields, need column 3",
		},
		{
			name: "short records in chunks 1 and 3", floor: 2, cut: true,
			in:  "A,B,S\n1,2,x\n3,4\n\n5,6,z\n7,8,x\n9,9\n1,1,y\n",
			err: "table: CSV line 3 has 2 fields, need column 3",
		},
		{name: "quoted body", in: "A,B,S\n1,2,x\n\"3\",4,y\n5,6,z\n7,8,w\n", floor: 1},
		{name: "three spans of ingestSpanLines", in: big.String(), floor: ingestSpanLines, cut: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, cuts, _ := unreadLines(strings.NewReader(tc.in), tc.floor); (len(cuts) >= 2) != tc.cut {
				t.Fatalf("%d cuts, want cut=%v", len(cuts), tc.cut)
			}
			want, wantErr := readCSV(strings.NewReader(tc.in), []string{"A", "B"}, "S", 1, tc.floor)
			got, err := readCSV(strings.NewReader(tc.in), []string{"A", "B"}, "S", 3, tc.floor)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || err != nil && err.Error() != tc.err {
				t.Fatalf("error %v, sequential %v, want %q", err, wantErr, tc.err)
			}
			if err == nil {
				if tc.err != "" {
					t.Fatalf("no error, want %q", tc.err)
				}
				if diff := sameTables(got, want); diff != "" {
					t.Fatal(diff)
				}
			}
			checkAgainstOracle(t, []byte(tc.in), []string{"A", "B"}, "S")
		})
	}
}
