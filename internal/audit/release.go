package audit

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// This file parses releases back into equivalence groups using only the
// release's own structure. Content problems (wrong header, bad field counts,
// CSV syntax errors) are recorded as typed violations — a corrupted release is
// a verification verdict, not an operational error — and an error is returned
// only when the underlying reader fails.

// genRelease is a parsed generalized release. Rows are grouped by their
// published QI signature while they are scanned, and each distinct published
// label is stored once, so later checks work per distinct label rather than
// per row.
type genRelease struct {
	rows    []genRow
	skipped int // data rows present in the file but unreadable
	groups  int // QI-signature groups, numbered in first-appearance order
	// groupQI[g*d+j] is the code, in qi[j], of group g's label in QI column
	// j, or -1 for a "*": a "*" covers every value, so it is neither
	// interned nor checked.
	groupQI []int32
	// qi[j] and sa are the published labels of QI column j and of the
	// sensitive column, coded in first-appearance order.
	qi []*table.Attribute
	sa *table.Attribute
}

// genRow is one parsed data row of a generalized release.
type genRow struct {
	idx   int // 0-based data-row index in the release file
	group int // QI-signature group
	sa    int // code of the published sensitive label in genRelease.sa
}

// parseGeneralized reads a generalized release. It returns the parsed release
// and whether the structure was sound enough to interpret it (a header
// mismatch makes column meanings unknowable, so verification stops there).
// Skipped rows break the release/source row alignment, so callers must not
// run row-aligned fidelity checks then. sourceRows, the original table's row
// count, sizes the row list a faithful release fills.
//
// Rows are grouped during the scan into equivalence groups of identical
// published QI signatures — exactly the groups a linking adversary can
// distinguish — in first-appearance order. A row's key is its QI span, the
// QI fields as the scanner joined them with commas, when that span splits
// back into the fields one way only: when no QI field holds a comma, which
// a quote-free record guarantees unchecked. Any other row's key is its QI
// fields' lengths followed by its span, which the lengths split. That key
// holds at least d commas and a span key exactly d-1, so the two kinds never
// collide. Both are functions of the unescaped fields, so a quoted field and
// its unquoted twin still share a group. The key is looked up without
// allocating, and only a new group's labels are interned.
func parseGeneralized(sch *table.Schema, sourceRows int, release io.Reader, rep *reporter) (rel *genRelease, ok bool, err error) {
	s := table.NewRecordScanner(release)
	if _, err := s.Scan(); err != nil {
		return nil, false, readFailure(err, rep, "release has no header")
	}
	header := recordStrings(s)
	want := append(sch.QINames(), sch.SA().Name())
	if !slices.Equal(header, want) {
		rep.add(ViolationSchema, -1, -1, func() string {
			return fmt.Sprintf("release header %q does not match the original schema %q", header, want)
		})
		return nil, false, nil
	}
	d := sch.Dimensions()
	rel = &genRelease{rows: make([]genRow, 0, sourceRows), qi: make([]*table.Attribute, d), sa: table.NewAttribute(want[d])}
	for j := range rel.qi {
		rel.qi[j] = table.NewAttribute(want[j])
	}
	groupOf := make(map[string]int)
	var lp []byte // the key of a row whose span alone is ambiguous
	for i := 0; ; i++ {
		_, err := s.Scan()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !isParseError(err) {
				return rel, true, fmt.Errorf("audit: reading release: %w", err)
			}
			// Keep reading: one corrupt record must not hide violations in
			// the rest of the release.
			rel.skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("release row %d is not parseable CSV: %v", i, err)
			})
			continue
		}
		if n := s.Fields(); n != d+1 {
			rel.skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("release row %d has %d fields, the schema needs %d", i, n, d+1)
			})
			continue
		}
		key, quoteFree := s.Span(d)
		if !quoteFree && bytes.Count(key, []byte{','}) != d-1 {
			lp = lp[:0]
			for j := 0; j < d; j++ {
				lp = binary.AppendUvarint(lp, uint64(len(s.Field(j))))
			}
			lp = append(lp, key...)
			key = lp
		}
		g, seen := groupOf[string(key)]
		if !seen {
			g = rel.groups
			rel.groups++
			groupOf[string(key)] = g
			for j := 0; j < d; j++ {
				code := int32(-1)
				if f := s.Field(j); len(f) != 1 || f[0] != '*' {
					code = int32(rel.qi[j].EncodeBytes(f))
				}
				rel.groupQI = append(rel.groupQI, code)
			}
		}
		rel.rows = append(rel.rows, genRow{idx: i, group: g, sa: rel.sa.EncodeBytes(s.Field(d))})
	}
	return rel, true, nil
}

// recordStrings copies the scanner's current record into strings that share
// one allocation, as encoding/csv's Reader does.
func recordStrings(s *table.RecordScanner) []string {
	n := 0
	for i := 0; i < s.Fields(); i++ {
		n += len(s.Field(i))
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < s.Fields(); i++ {
		b.Write(s.Field(i))
	}
	all := b.String()
	rec := make([]string, s.Fields())
	for i := range rec {
		n := len(s.Field(i))
		rec[i], all = all[:n], all[n:]
	}
	return rec
}

// cellParser interprets published QI labels for one attribute: "*" is a
// suppressed cell, a label in the attribute's domain is an exact cell, and
// "{v1,v2,...}" whose interior segments into domain labels is a sub-domain
// cell. Anything else is unknown. It is built once per attribute per
// verification so the domain scan is paid once.
type cellParser struct {
	attr     *table.Attribute
	labels   []string // domain labels in code order
	anyComma bool     // some domain label contains ',': naive splitting is unsafe
	maxSet   int      // longest interior a duplicate-free set can render to
}

func newCellParser(a *table.Attribute) *cellParser {
	p := &cellParser{attr: a, labels: a.Labels()}
	for _, lab := range p.labels {
		if strings.Contains(lab, ",") {
			p.anyComma = true
		}
		p.maxSet += len(lab) + 1
	}
	return p
}

// parse interprets one published label; the second result reports whether the
// label was interpretable over the original domain.
func (p *cellParser) parse(label string) (generalize.Cell, bool) {
	if label == "*" {
		return generalize.Cell{Kind: generalize.CellStar}, true
	}
	if code, ok := p.attr.Code(label); ok {
		return generalize.Cell{Kind: generalize.CellExact, Value: code}, true
	}
	if len(label) >= 2 && strings.HasPrefix(label, "{") && strings.HasSuffix(label, "}") {
		set, ok := p.parseSet(label[1 : len(label)-1])
		if !ok {
			return generalize.Cell{}, false
		}
		return generalize.Cell{Kind: generalize.CellSet, Set: set}, true
	}
	return generalize.Cell{}, false
}

// setParseBudget caps the label-comparison work one set cell's segmentation
// may spend. Legitimate cells (census interval domains) stay far below it;
// an adversarial original+release pair that maximizes both the domain and
// the cell length gives up here instead of stalling a verification worker.
const setParseBudget = 1 << 22

// parseSet recovers the member codes of a "{v1,v2,...}" interior. The
// renderer joins labels with bare commas, so when a domain label itself
// contains a comma (census interval labels like "[30,50)" do) the interior is
// segmented against the known domain with a right-to-left DP instead of a
// naive split.
func (p *cellParser) parseSet(interior string) ([]int, bool) {
	// A set of distinct domain labels can never render longer than the whole
	// domain joined; longer interiors are rejected up front, which also
	// bounds the DP below to domain-sized work on attacker-sized cells.
	if interior == "" || len(interior) > p.maxSet {
		return nil, false
	}
	budget := setParseBudget
	var set []int
	if !p.anyComma {
		for _, part := range strings.Split(interior, ",") {
			code, ok := p.attr.Code(part)
			if !ok {
				return nil, false
			}
			set = append(set, code)
		}
	} else {
		n := len(interior)
		// ok[i] reports whether interior[i:] segments into comma-joined
		// domain labels (backward pass); reach[i] whether some valid
		// segmentation of the whole interior has a label starting at i
		// (forward pass). The rendering is ambiguous when one label is a
		// comma-join of others, so the set is read permissively as every
		// code appearing in any valid segmentation — a correct release is
		// never refuted over an ambiguity its own renderer created.
		ok := make([]bool, n+1)
		ok[n] = true
		for i := n - 1; i >= 0; i-- {
			for _, lab := range p.labels {
				if budget -= len(lab) + 1; budget < 0 {
					return nil, false
				}
				if !strings.HasPrefix(interior[i:], lab) {
					continue
				}
				j := i + len(lab)
				if j == n || (interior[j] == ',' && ok[j+1]) {
					ok[i] = true
					break
				}
			}
		}
		if !ok[0] {
			return nil, false
		}
		reach := make([]bool, n+1)
		reach[0] = true
		for i := 0; i < n; i++ {
			if !reach[i] {
				continue
			}
			for code, lab := range p.labels {
				if budget -= len(lab) + 1; budget < 0 {
					return nil, false
				}
				if !strings.HasPrefix(interior[i:], lab) {
					continue
				}
				j := i + len(lab)
				if j == n {
					set = append(set, code)
				} else if interior[j] == ',' && ok[j+1] {
					set = append(set, code)
					reach[j+1] = true
				}
			}
		}
	}
	sort.Ints(set)
	return slices.Compact(set), true
}

// qitRow is one parsed row of anatomy's quasi-identifier table.
type qitRow struct {
	idx int      // 0-based data-row index in the QIT file
	row int      // published surrogate tuple identifier
	qi  []string // exact QI labels
	gid int      // published bucket identifier
}

// parseQIT reads anatomy's quasi-identifier table (Row, QI..., GroupID). The
// skipped count reports data rows that were present but unreadable, so the
// caller's row-count reconciliation sees them.
func parseQIT(sch *table.Schema, qit io.Reader, rep *reporter) (rows []qitRow, ok bool, skipped int, err error) {
	s := table.NewRecordScanner(qit)
	if _, err := s.Scan(); err != nil {
		return nil, false, 0, readFailure(err, rep, "QIT has no header")
	}
	header := recordStrings(s)
	want := append([]string{"Row"}, sch.QINames()...)
	want = append(want, "GroupID")
	if !slices.Equal(header, want) {
		rep.add(ViolationSchema, -1, -1, func() string {
			return fmt.Sprintf("QIT header %q does not match the expected anatomy layout %q", header, want)
		})
		return nil, false, 0, nil
	}
	d := sch.Dimensions()
	for i := 0; ; i++ {
		_, err := s.Scan()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !isParseError(err) {
				return rows, true, skipped, fmt.Errorf("audit: reading QIT: %w", err)
			}
			skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("QIT row %d is not parseable CSV: %v", i, err)
			})
			continue
		}
		rec := recordStrings(s)
		if len(rec) != d+2 {
			skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("QIT row %d has %d fields, the layout needs %d", i, len(rec), d+2)
			})
			continue
		}
		rowID, err1 := strconv.Atoi(rec[0])
		gid, err2 := strconv.Atoi(rec[d+1])
		if err1 != nil || err2 != nil {
			skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("QIT row %d has non-integer Row %q or GroupID %q", i, rec[0], rec[d+1])
			})
			continue
		}
		rows = append(rows, qitRow{idx: i, row: rowID, qi: rec[1 : d+1 : d+1], gid: gid})
	}
	return rows, true, skipped, nil
}

// stEntry is one parsed row of anatomy's sensitive table.
type stEntry struct {
	idx   int // 0-based data-row index in the ST file
	gid   int
	label string
	count int
}

// parseST reads anatomy's sensitive table (GroupID, SA, Count).
func parseST(sch *table.Schema, st io.Reader, rep *reporter) (entries []stEntry, ok bool, err error) {
	s := table.NewRecordScanner(st)
	if _, err := s.Scan(); err != nil {
		return nil, false, readFailure(err, rep, "ST has no header")
	}
	header := recordStrings(s)
	want := []string{"GroupID", sch.SA().Name(), "Count"}
	if !slices.Equal(header, want) {
		rep.add(ViolationSchema, -1, -1, func() string {
			return fmt.Sprintf("ST header %q does not match the expected anatomy layout %q", header, want)
		})
		return nil, false, nil
	}
	for i := 0; ; i++ {
		_, err := s.Scan()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !isParseError(err) {
				return entries, true, fmt.Errorf("audit: reading ST: %w", err)
			}
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("ST row %d is not parseable CSV: %v", i, err)
			})
			continue
		}
		rec := recordStrings(s)
		if len(rec) != 3 {
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("ST row %d has %d fields, the layout needs 3", i, len(rec))
			})
			continue
		}
		gid, err1 := strconv.Atoi(rec[0])
		count, err2 := strconv.Atoi(rec[2])
		if err1 != nil || err2 != nil {
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("ST row %d has non-integer GroupID %q or Count %q", i, rec[0], rec[2])
			})
			continue
		}
		if count < 1 {
			rep.add(ViolationMalformed, gid, i, func() string {
				return fmt.Sprintf("ST row %d publishes non-positive count %d", i, count)
			})
			continue
		}
		entries = append(entries, stEntry{idx: i, gid: gid, label: rec[1], count: count})
	}
	return entries, true, nil
}

// isParseError reports whether a scanner error is a syntax problem in the
// input (a content violation) rather than a real I/O failure.
func isParseError(err error) bool {
	var perr *csv.ParseError
	return errors.As(err, &perr)
}

// readFailure classifies a header-read error: syntax errors in the release
// are content violations (recorded, nil error); anything else is a real I/O
// failure the caller must see. Row loops handle their own parse errors so
// one corrupt record does not end the audit.
func readFailure(err error, rep *reporter, context string) error {
	if err == io.EOF {
		rep.add(ViolationMalformed, -1, -1, func() string {
			return context + ": unexpected end of input"
		})
		return nil
	}
	if isParseError(err) {
		rep.add(ViolationMalformed, -1, -1, func() string {
			return fmt.Sprintf("%s: %v", context, err)
		})
		return nil
	}
	return fmt.Errorf("audit: reading release: %w", err)
}
