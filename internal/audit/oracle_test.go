package audit

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"

	"ldiv/internal/table"
)

// This file keeps the generalized-release auditor as it was before rows were
// grouped during the scan: encoding/csv tokenizing, one []string per row, a
// length-prefixed string key per row, and every published cell parsed on
// every row. It is the oracle the production auditor's Reports must match
// JSON for JSON.

// VerifyGeneralizedOracle exposes the oracle to the external test package.
var VerifyGeneralizedOracle = verifyGeneralizedOracle

// oracleRow is one parsed data row of a generalized release.
type oracleRow struct {
	idx   int      // 0-based data-row index in the release file
	qi    []string // published QI labels (exact, "*", or "{v1,v2,...}")
	sa    string   // published sensitive label
	group int      // QI-signature group, assigned by oracleGroupRows
}

func oracleParseGeneralized(sch *table.Schema, release io.Reader, rep *reporter) (rows []oracleRow, ok bool, skipped int, err error) {
	cr := csv.NewReader(release)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, false, 0, readFailure(err, rep, "release has no header")
	}
	want := append(sch.QINames(), sch.SA().Name())
	if !slices.Equal(header, want) {
		rep.add(ViolationSchema, -1, -1, func() string {
			return fmt.Sprintf("release header %q does not match the original schema %q", header, want)
		})
		return nil, false, 0, nil
	}
	d := sch.Dimensions()
	for i := 0; ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !isParseError(err) {
				return rows, true, skipped, fmt.Errorf("audit: reading release: %w", err)
			}
			skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("release row %d is not parseable CSV: %v", i, err)
			})
			continue
		}
		if len(rec) != d+1 {
			skipped++
			rep.add(ViolationMalformed, -1, i, func() string {
				return fmt.Sprintf("release row %d has %d fields, the schema needs %d", i, len(rec), d+1)
			})
			continue
		}
		rows = append(rows, oracleRow{idx: i, qi: rec[:d:d], sa: rec[d], group: -1})
	}
	return rows, true, skipped, nil
}

// oracleGroupRows partitions rows by identical published QI signatures in
// first-appearance order.
func oracleGroupRows(rows []oracleRow) [][]int {
	byKey := make(map[string]int)
	var groups [][]int
	var key []byte
	for i := range rows {
		key = key[:0]
		for _, lab := range rows[i].qi {
			key = strconv.AppendInt(key, int64(len(lab)), 10)
			key = append(key, ':')
			key = append(key, lab...)
		}
		gi, seen := byKey[string(key)]
		if !seen {
			gi = len(groups)
			byKey[string(key)] = gi
			groups = append(groups, nil)
		}
		rows[i].group = gi
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

func verifyGeneralizedOracle(t *table.Table, release io.Reader, opts Options) (*Report, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	rep := newReporter(KindGeneralized, opts, t.Len())
	rows, structOK, skipped, err := oracleParseGeneralized(t.Schema(), release, rep)
	if err != nil {
		return nil, err
	}
	rep.report.ReleaseRows = len(rows) + skipped
	if !structOK {
		return rep.finish(), nil
	}
	groups := oracleGroupRows(rows)
	rep.report.Groups = len(groups)

	aligned := len(rows)+skipped == t.Len()
	if !aligned {
		rep.add(ViolationRowCount, -1, -1, func() string {
			return fmt.Sprintf("release has %d data rows, the original table has %d", len(rows)+skipped, t.Len())
		})
	}

	sch := t.Schema()
	d := sch.Dimensions()
	parsers := make([]*cellParser, d)
	for j := range parsers {
		parsers[j] = newCellParser(sch.QI(j))
	}
	for i := range rows {
		r := &rows[i]
		for j := 0; j < d; j++ {
			cell, known := parsers[j].parse(r.qi[j])
			if !known {
				rep.add(ViolationUnknownValue, r.group, r.idx, func() string {
					return fmt.Sprintf("row %d publishes %q for attribute %q, which is outside the original domain",
						r.idx, r.qi[j], sch.QI(j).Name())
				})
				continue
			}
			if aligned && !cell.Covers(t.QIAt(r.idx, j)) {
				rep.add(ViolationQICoverage, r.group, r.idx, func() string {
					return fmt.Sprintf("row %d publishes %q for attribute %q, which does not cover the original value %q",
						r.idx, r.qi[j], sch.QI(j).Name(), t.QILabel(r.idx, j))
				})
			}
		}
	}

	res := newSAResolver(sch.SA())
	saCodes := make([]int, len(rows))
	unknownSeen := make(map[string]bool)
	for i := range rows {
		code, known := res.code(rows[i].sa)
		saCodes[i] = code
		if !known && !unknownSeen[rows[i].sa] {
			unknownSeen[rows[i].sa] = true
			rep.add(ViolationUnknownValue, rows[i].group, rows[i].idx, func() string {
				return fmt.Sprintf("row %d publishes sensitive value %q, which is outside the original domain", rows[i].idx, rows[i].sa)
			})
		}
	}

	counter := newGroupCounter(res.domain())
	sa := t.SAView()
	for gid, g := range groups {
		counter.reset()
		for _, i := range g {
			counter.addN(saCodes[i], 1)
		}
		checkGroupPrivacy(rep, gid, len(g), counter, res, opts)
		if aligned {
			for _, i := range g {
				counter.addN(sa[rows[i].idx], -1)
			}
			reportMultisetDiff(rep, gid, counter, res)
		}
	}
	return rep.finish(), nil
}
