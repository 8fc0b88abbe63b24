package table

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"

	"ldiv/internal/parallel"
)

// ReadCSV reads a microdata table from CSV. The first record must be a header
// naming every column. qiColumns selects (in order) the columns to treat as
// QI attributes; saColumn names the sensitive attribute. Other columns are
// ignored, and may share names; a selected column must be named exactly
// once. Every value is treated as a categorical label. Errors name the
// physical line on which the offending record starts.
//
// When r can report its length (*bytes.Reader and *strings.Reader can; see
// unreadLines), the table's columns are allocated once, for as many rows as
// the unread bytes can hold; any other reader grows them by doubling.
//
// A body of such a reader that holds no '"', has at least two spans of
// ingestSpanLines lines and leaves room in the reservation for every line is
// read in line-aligned chunks, one per CPU, each on its own goroutine and
// writing its records straight into its part of the reservation. The table
// is the one a sequential read builds, codes and dictionaries included: the
// first chunk interns into the schema's attributes, each later chunk into
// attributes of its own, which are merged in chunk order, and the chunk's
// codes are remapped in place. Other bodies, every one of fewer than
// 2*ingestSpanLines lines among them, are read on the calling goroutine.
func ReadCSV(r io.Reader, qiColumns []string, saColumn string) (*Table, error) {
	return readCSV(r, qiColumns, saColumn, parallel.WorkerCount(0), ingestSpanLines)
}

// ingestSpanLines is the granularity, in lines, at which ReadCSV cuts a body
// into chunks; a body needs two spans to be cut, so serve-sized bodies of a
// few thousand rows are read sequentially.
const ingestSpanLines = 8192

// readCSV is ReadCSV cutting a body into at most workers chunks, at spans of
// floor lines.
func readCSV(r io.Reader, qiColumns []string, saColumn string, workers, floor int) (*Table, error) {
	// Count before the scanner's first read, whose read-ahead would hide
	// records from the count.
	lines, unread, cuts, sized := unreadLines(r, floor)
	s := NewRecordScanner(r)
	if _, err := s.Scan(); err != nil {
		return nil, fmt.Errorf("table: reading CSV header: %w", err)
	}
	colIdx := make(map[string]int, s.Fields())
	for i := 0; i < s.Fields(); i++ {
		name := string(s.Field(i))
		if _, dup := colIdx[name]; dup {
			colIdx[name] = -1 // ambiguous: selecting it is an error
		} else {
			colIdx[name] = i
		}
	}
	column := func(name string) (int, error) {
		idx, ok := colIdx[name]
		if !ok {
			return 0, fmt.Errorf("table: CSV has no column %q", name)
		}
		if idx < 0 {
			return 0, fmt.Errorf("table: CSV header names column %q more than once", name)
		}
		return idx, nil
	}
	rd := recordReader{idx: make([]int, len(qiColumns)+1)}
	attrs := make([]*Attribute, len(qiColumns)+1) // the QI attributes, then the SA
	for i, name := range append(slices.Clip(qiColumns), saColumn) {
		idx, err := column(name)
		if err != nil {
			return nil, err
		}
		rd.idx[i] = idx
		attrs[i] = NewAttribute(name)
		rd.need = max(rd.need, idx+1)
	}
	schema, err := NewSchema(attrs[:len(qiColumns)], attrs[len(qiColumns)])
	if err != nil {
		return nil, err
	}
	rows := 0
	if sized {
		// A record holds at least need-1 commas and a line end (or EOF), so
		// (unread+1)/need bounds the records even where the lines do not:
		// blank lines, or one quoted field spanning many lines. The bound is
		// reserved before any record is checked, so an empty or rejected body
		// costs as much as a valid one of the same length; a valid one would
		// reach that size by doubling anyway, so the worst case is unchanged.
		rows = min(lines+1, (unread+1)/rd.need)
	}
	b := NewBuilder(schema, rows)
	if sized && workers > 1 && rows == lines+1 {
		// Every line fits the reservation at its own row, less the header's
		// lines, so each chunk can write from the row its first line sits at.
		// The records start where the scanner's reads, less what it holds
		// buffered, left off.
		lr := r.(lenReader)
		start := chunk{off: lr.Size() - int64(lr.Len()) - int64(s.r.Buffered()), line: s.numLine}
		spans := []chunk{start}
		for i, off := range cuts {
			if off > start.off && off < lr.Size() {
				spans = append(spans, chunk{off: off, line: (i + 1) * floor})
			}
		}
		if len(spans) >= 2 {
			// One chunk per worker, each of about as many spans: every
			// chunk after the first builds dictionaries of its own.
			chunks := make([]chunk, min(workers, len(spans)))
			for i := range chunks {
				chunks[i] = spans[i*len(spans)/len(chunks)]
			}
			return rd.readChunks(b, lr, chunks, attrs, workers)
		}
	}
	if err := rd.read(b, s, 0, attrs); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// recordReader reads records into a table builder: idx holds the field index of
// each QI column, then of the SA column, and need the fields a record must
// have to reach all of them.
type recordReader struct {
	idx  []int
	need int
}

// read appends s's records to b, interning the selected fields into attrs,
// which hold a QI attribute per column and then the SA. line0 is the number
// of physical lines before s's first, so errors name lines of the whole
// body.
func (rd recordReader) read(b *Builder, s *RecordScanner, line0 int, attrs []*Attribute) error {
	d := len(attrs) - 1
	codes := make([]int, d)
	for {
		line, err := s.Scan()
		if err == io.EOF {
			return nil
		}
		line += line0
		if err != nil {
			return fmt.Errorf("table: reading CSV line %d: %w", line, err)
		}
		if n := s.Fields(); n < rd.need {
			for _, idx := range rd.idx {
				if idx >= n {
					return fmt.Errorf("table: CSV line %d has %d fields, need column %d", line, n, idx+1)
				}
			}
		}
		for i, idx := range rd.idx[:d] {
			codes[i] = attrs[i].EncodeBytes(s.Field(idx))
		}
		b.push(codes, attrs[d].EncodeBytes(s.Field(rd.idx[d])))
	}
}

// chunk is a line-aligned byte range of a quote-free body, from off to the
// next chunk's off or the body's end.
type chunk struct {
	off   int64
	line  int          // physical lines before off
	at    int          // b's row for the chunk's first line
	rows  int          // records read
	attrs []*Attribute // dictionaries the chunk interned into
	err   error
}

// readChunks reads the records of a quote-free body in chunks, on up to
// workers goroutines, into b, whose reservation holds every line after the
// header at its own row, and returns the table b builds. Chunk 0 interns into attrs, the
// schema's attributes; every later chunk into fresh ones, which are merged
// into attrs in chunk order so each label keeps the code a sequential read
// gives it, and the chunk's codes are remapped to those. The rows are then
// moved down over the rows left empty by blank lines. The first chunk that
// fails gives the error, which is the error a sequential read would return.
func (rd recordReader) readChunks(b *Builder, lr lenReader, chunks []chunk, attrs []*Attribute, workers int) (*Table, error) {
	end := lr.Size()
	err := parallel.Run(workers, len(chunks), func(k int) error {
		c := &chunks[k]
		c.at = c.line - chunks[0].line
		c.attrs = attrs
		if k > 0 {
			c.attrs = make([]*Attribute, len(attrs))
			for j, a := range attrs {
				c.attrs[j] = NewAttribute(a.name)
			}
		}
		stop, room := end, b.cap-c.at
		if k+1 < len(chunks) {
			stop, room = chunks[k+1].off, chunks[k+1].line-c.line
		}
		w := b.window(c.at, room)
		c.err = rd.read(w, NewRecordScanner(io.NewSectionReader(lr, c.off, stop-c.off)), c.line, c.attrs)
		c.rows = len(w.sa)
		return nil
	})
	if err != nil {
		return nil, err
	}
	remap := make([][][]int32, len(chunks))
	for k := range chunks {
		if chunks[k].err != nil {
			return nil, chunks[k].err
		}
		if k == 0 {
			continue
		}
		remap[k] = make([][]int32, len(attrs))
		for j, a := range chunks[k].attrs {
			m := make([]int32, len(a.labels))
			for code, label := range a.labels {
				m[code] = int32(attrs[j].Encode(label))
			}
			remap[k][j] = m
		}
	}
	d := len(attrs) - 1
	err = parallel.Run(workers, len(chunks)-1, func(k int) error {
		c, m := &chunks[k+1], remap[k+1]
		for j, col := range b.cols {
			seg := col[c.at : c.at+c.rows]
			for i, v := range seg {
				seg[i] = m[j][v]
			}
		}
		seg := b.sa[c.at : c.at+c.rows]
		for i, v := range seg {
			seg[i] = int(m[d][v])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range chunks {
		if c.at != n {
			for _, col := range b.cols {
				copy(col[n:n+c.rows], col[c.at:c.at+c.rows])
			}
			copy(b.sa[n:n+c.rows], b.sa[c.at:c.at+c.rows])
		}
		n += c.rows
	}
	for j := range b.cols {
		b.cols[j] = b.cols[j][:n]
	}
	b.sa = b.sa[:n]
	return b.Build(), nil
}

// lenReader is a reader that can report its unread length and read ahead
// of its position without moving it, as *bytes.Reader and *strings.Reader
// can.
type lenReader interface {
	io.ReaderAt
	Len() int
	Size() int64
}

// unreadLines counts the '\n' bytes in r's unread range and reports that
// range's length, if r is a lenReader; r's position does not move. sized is
// false for any other reader, or if reading ahead fails. Unless the range
// holds a '"', cuts lists the offset just past every every-th '\n', where a
// line-aligned chunk may start.
func unreadLines(r io.Reader, every int) (lines, unread int, cuts []int64, sized bool) {
	lr, ok := r.(lenReader)
	if !ok {
		return 0, 0, nil, false
	}
	unread = lr.Len()
	var buf [8 << 10]byte
	end := lr.Size()
	quoted := false
	for off := end - int64(unread); off < end; {
		n, err := lr.ReadAt(buf[:min(int64(len(buf)), end-off)], off)
		b := buf[:n]
		k := bytes.Count(b, []byte{'\n'})
		quoted = quoted || bytes.IndexByte(b, '"') >= 0
		for pos, seen := 0, 0; !quoted && (len(cuts)+1)*every-lines <= k; {
			for ; seen < (len(cuts)+1)*every-lines; seen++ {
				pos += bytes.IndexByte(b[pos:], '\n') + 1
			}
			cuts = append(cuts, off+int64(pos))
		}
		lines += k
		off += int64(n)
		if n == 0 || err != nil && off < end {
			return 0, 0, nil, false
		}
	}
	if quoted {
		cuts = nil
	}
	return lines, unread, cuts, true
}

// RecordScanner reads CSV records the way encoding/csv's Reader does with
// comma ',', no comment lines, strict quotes and a variable field count fixed
// in place. CRLF is read as LF, blank lines are skipped, a trailing '\r'
// before EOF is dropped, and a quoted field may span lines. It is a port of
// the Reader's readLine and readRecord that hands back each record as byte
// ranges of the line read or of one reused buffer instead of a fresh
// []string, and its syntax errors are the same *csv.ParseError values. Like
// the Reader, it can keep scanning after a syntax error: the next Scan
// starts on the line after the one the error was found on.
//
// A line with no '"' in it takes a quote-free path: it is one whole record,
// its fields are the bytes between its commas, read in place with no copy,
// and it cannot hold a syntax error. Only records with a quote go through
// the ported field parser, which unescapes them into the reused buffer. Both
// paths share readLine, so CRLF handling and line numbers are the same.
type RecordScanner struct {
	r         *bufio.Reader
	numLine   int    // physical lines read so far
	raw       []byte // joins a line longer than the bufio buffer
	unescaped []byte // holds the fields of a record with a quote
	record    []byte // the record's fields, one separator byte apart
	ends      []int  // ends[i] is the end offset of field i in record
	quoteFree bool   // the record took the quote-free path
}

// NewRecordScanner returns a scanner reading records from r.
func NewRecordScanner(r io.Reader) *RecordScanner {
	return &RecordScanner{r: bufio.NewReader(r)}
}

// Fields returns the number of fields in the last record scanned.
func (s *RecordScanner) Fields() int { return len(s.ends) }

// Field returns field i of the last record scanned. The bytes are only valid
// until the next call to Scan.
func (s *RecordScanner) Field(i int) []byte {
	start := 0
	if i > 0 {
		start = s.ends[i-1] + 1
	}
	return s.record[start:s.ends[i]]
}

// Span returns fields 0 to n-1 of the last record scanned, joined by commas,
// and whether the record held no '"'. Such a record's fields hold no comma,
// so its span splits back into the n fields one way only; a quoted record's
// fields may, so its span can be ambiguous. n must be at least 1 and at most
// Fields(). The bytes are only valid until the next call to Scan.
func (s *RecordScanner) Span(n int) ([]byte, bool) {
	return s.record[:s.ends[n-1]], s.quoteFree
}

// endField ends the field being unescaped into record and writes a
// separator byte after it, so the fields are laid out as on a quote-free
// line, whose record is the line itself.
func (s *RecordScanner) endField() {
	s.ends = append(s.ends, len(s.record))
	s.record = append(s.record, ',')
}

// readLine reads the next line with its trailing newline, which is omitted
// at EOF. If some bytes were read the error is never io.EOF. The line is only
// valid until the next call.
func (s *RecordScanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		s.raw = append(s.raw[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = s.r.ReadSlice('\n')
			s.raw = append(s.raw, line...)
		}
		line = s.raw
	}
	if len(line) > 0 && err == io.EOF {
		err = nil
		if line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
	}
	s.numLine++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// Scan reads the next record and returns the physical line it starts on. It
// returns io.EOF when no record is left. On any other error the record is
// incomplete and must not be used.
func (s *RecordScanner) Scan() (int, error) {
	line, errRead := s.readLine()
	for errRead == nil && len(line) == lengthNL(line) {
		line, errRead = s.readLine() // skip empty lines
	}
	if errRead == io.EOF {
		return s.numLine, errRead
	}

	recLine := s.numLine
	s.ends = s.ends[:0]
	if bytes.IndexByte(line, '"') < 0 {
		// Quote-free record: the line is the record, its fields the bytes
		// between commas.
		s.record = line[:len(line)-lengthNL(line)]
		n := bytes.Count(s.record, []byte{','})
		ends := slices.Grow(s.ends, n+1)[:n+1]
		k := 0
		for i, c := range s.record {
			ends[k] = i // overwritten until the comma ending field k
			if c == ',' {
				k++
			}
		}
		ends[n] = len(s.record)
		s.ends = ends
		s.quoteFree = true
		return recLine, errRead
	}

	s.quoteFree = false
	s.record = s.unescaped[:0]
	var err error
	posLine, col := s.numLine, 1 // position of the next unread byte
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Unquoted field.
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			s.record = append(s.record, field...)
			s.endField()
			if i >= 0 {
				line = line[i+1:]
				col += i + 1
				continue parseField
			}
			break parseField
		}
		// Quoted field.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.record = append(s.record, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					// `""` is an escaped quote.
					s.record = append(s.record, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					// `",` ends the field.
					line = line[1:]
					col++
					s.endField()
					continue parseField
				case lengthNL(line) == len(line):
					// `"\n` ends the record.
					s.endField()
					break parseField
				default:
					err = &csv.ParseError{StartLine: recLine, Line: s.numLine, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0:
				// The field runs on past the end of the line.
				s.record = append(s.record, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = s.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// Abrupt end of input inside the quotes.
				if errRead == nil {
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				s.endField()
				break parseField
			}
		}
	}
	s.unescaped = s.record
	if err == nil {
		err = errRead
	}
	return recLine, err
}

// WriteCSV writes the table as CSV with a header of the QI attribute names
// followed by the sensitive attribute name.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := append(t.Schema().QINames(), t.Schema().SA().Name())
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("table: writing CSV header: %w", err)
	}
	rec := make([]string, t.Dimensions()+1)
	for i := 0; i < t.Len(); i++ {
		for j := 0; j < t.Dimensions(); j++ {
			rec[j] = t.QILabel(i, j)
		}
		rec[t.Dimensions()] = t.SALabel(i)
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("table: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
