package audit

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/sat"
	"ldiv/internal/table"
)

// saResolver maps the sensitive labels a release publishes to dense codes:
// labels in the original domain keep their dictionary codes, and labels the
// original table has never seen are appended past the domain, so release
// histograms stay flat arrays (the same dense-path idea as
// table.SAGroupCounter) even for corrupted releases.
type saResolver struct {
	attr *table.Attribute
	ext  map[string]int
	labs []string // extension labels, code - Cardinality() indexed
}

func newSAResolver(attr *table.Attribute) *saResolver {
	return &saResolver{attr: attr, ext: make(map[string]int)}
}

// code returns the dense code for a published label and whether the label is
// part of the original domain.
func (r *saResolver) code(label string) (int, bool) {
	if c, ok := r.attr.Code(label); ok {
		return c, true
	}
	c, ok := r.ext[label]
	if !ok {
		c = r.attr.Cardinality() + len(r.labs)
		r.ext[label] = c
		r.labs = append(r.labs, label)
	}
	return c, false
}

// label inverts code.
func (r *saResolver) label(code int) string {
	if code < r.attr.Cardinality() {
		return r.attr.Label(code)
	}
	return r.labs[code-r.attr.Cardinality()]
}

// domain returns the extended domain size.
func (r *saResolver) domain() int { return r.attr.Cardinality() + len(r.labs) }

// groupCounter is a reusable dense histogram over the resolver's extended
// domain, re-zeroed between groups by undoing only the touched codes.
type groupCounter struct {
	counts []int32
	vals   []int32
}

func newGroupCounter(domain int) *groupCounter {
	return &groupCounter{counts: make([]int32, domain)}
}

func (c *groupCounter) reset() {
	for _, v := range c.vals {
		c.counts[v] = 0
	}
	c.vals = c.vals[:0]
}

func (c *groupCounter) addN(code int, n int32) {
	if c.counts[code] == 0 {
		c.vals = append(c.vals, int32(code))
	}
	c.counts[code] += n
}

// checkGroupPrivacy runs every enabled privacy predicate over one group's
// dense release histogram (size n), using the shared group-level predicates
// of internal/eligibility.
func checkGroupPrivacy(rep *reporter, gid, n int, c *groupCounter, res *saResolver, opts Options) {
	if !eligibility.GroupFrequencyOK(c.counts, c.vals, n, opts.L) {
		max, arg := int32(0), int32(0)
		for _, v := range c.vals {
			if c.counts[v] > max {
				max, arg = c.counts[v], v
			}
		}
		rep.add(ViolationFrequency, gid, -1, func() string {
			return fmt.Sprintf("group %d has %d tuples but %d share sensitive value %q (needs at most %d for l=%d)",
				gid, n, max, res.label(int(arg)), n/opts.L, opts.L)
		})
	}
	if !eligibility.GroupDistinctOK(c.vals, opts.L) {
		rep.add(ViolationDistinct, gid, -1, func() string {
			return fmt.Sprintf("group %d has only %d distinct sensitive values (needs %d)", gid, len(c.vals), opts.L)
		})
	}
	if opts.Entropy && !eligibility.GroupEntropyOK(c.counts, c.vals, n, opts.L) {
		rep.add(ViolationEntropy, gid, -1, func() string {
			return fmt.Sprintf("group %d breaks entropy %d-diversity", gid, opts.L)
		})
	}
	if opts.RecursiveC > 0 && !eligibility.GroupRecursiveOK(c.counts, c.vals, opts.RecursiveC, opts.L) {
		rep.add(ViolationRecursive, gid, -1, func() string {
			return fmt.Sprintf("group %d breaks recursive (%g,%d)-diversity", gid, opts.RecursiveC, opts.L)
		})
	}
}

// validateOptions rejects option values that would corrupt the predicates:
// the recursive constant must be a positive finite number (NaN fails every
// comparison, +Inf passes them all).
func validateOptions(opts Options) error {
	if opts.L < 2 {
		return fmt.Errorf("audit: l must be at least 2, got %d", opts.L)
	}
	if c := opts.RecursiveC; c != 0 && (!(c > 0) || math.IsInf(c, 1)) {
		return fmt.Errorf("audit: the recursive constant must be a positive finite number, got %g", c)
	}
	return nil
}

// satAdd adds two non-negative ints, saturating instead of wrapping.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// checkGroupPrivacyCounts is checkGroupPrivacy for anatomy's published
// histograms, whose counts are attacker-controlled and must not be narrowed
// before the predicates run: the arithmetic is full-width with saturation,
// and the frequency comparison is division-based so l*max cannot overflow.
// codes must be the sorted keys of counts (for deterministic messages).
func checkGroupPrivacyCounts(rep *reporter, gid int, codes []int, counts map[int]int, res *saResolver, opts Options) {
	size, max, argMax := 0, 0, -1
	for _, code := range codes {
		c := counts[code]
		size = satAdd(size, c)
		if c > max {
			max, argMax = c, code
		}
	}
	if max > size/opts.L {
		rep.add(ViolationFrequency, gid, -1, func() string {
			return fmt.Sprintf("group %d has %d tuples but %d share sensitive value %q (needs at most %d for l=%d)",
				gid, size, max, res.label(argMax), size/opts.L, opts.L)
		})
	}
	if len(codes) < opts.L {
		rep.add(ViolationDistinct, gid, -1, func() string {
			return fmt.Sprintf("group %d has only %d distinct sensitive values (needs %d)", gid, len(codes), opts.L)
		})
	}
	if opts.Entropy {
		entropy := 0.0
		for _, code := range codes {
			p := float64(counts[code]) / float64(size)
			entropy -= p * math.Log(p)
		}
		if entropy+1e-12 < math.Log(float64(opts.L)) {
			rep.add(ViolationEntropy, gid, -1, func() string {
				return fmt.Sprintf("group %d breaks entropy %d-diversity", gid, opts.L)
			})
		}
	}
	if opts.RecursiveC > 0 {
		recursiveOK := len(codes) >= opts.L
		if recursiveOK {
			sorted := make([]int, 0, len(codes))
			for _, code := range codes {
				sorted = append(sorted, counts[code])
			}
			sort.Ints(sorted)
			tail := 0.0
			for i := 0; i <= len(sorted)-opts.L; i++ {
				tail += float64(sorted[i])
			}
			recursiveOK = float64(sorted[len(sorted)-1]) < opts.RecursiveC*tail
		}
		if !recursiveOK {
			rep.add(ViolationRecursive, gid, -1, func() string {
				return fmt.Sprintf("group %d breaks recursive (%g,%d)-diversity", gid, opts.RecursiveC, opts.L)
			})
		}
	}
}

// reportMultisetDiff records one sa_mismatch violation for a group whose
// release histogram (diff counts: release minus original) does not balance,
// naming the smallest-coded differing value so messages are deterministic.
func reportMultisetDiff(rep *reporter, gid int, c *groupCounter, res *saResolver) bool {
	arg := -1
	for _, v := range c.vals {
		if c.counts[v] != 0 && (arg < 0 || int(v) < arg) {
			arg = int(v)
		}
	}
	if arg < 0 {
		return false
	}
	delta := c.counts[arg]
	verb := "more"
	if delta < 0 {
		verb, delta = "fewer", -delta
	}
	rep.add(ViolationSAMismatch, gid, -1, func() string {
		return fmt.Sprintf("group %d publishes %d %s occurrence(s) of sensitive value %q than the original rows it covers",
			gid, delta, verb, res.label(arg))
	})
	return true
}

// VerifyGeneralized audits a single-table generalized release (TP, TP+,
// Hilbert, TDS, Mondrian, Incognito — any release in the table.WriteCSV
// header layout) against the original microdata. The release's equivalence
// groups are re-derived from its published QI signatures alone; privacy is
// checked on those groups using only release data, and fidelity is checked
// row-by-row against the original (releases produced by this system keep
// source row order, which the auditor relies on for the coverage and
// sensitive-multiset checks).
//
// The returned error is reserved for reader failures and invalid options;
// every content problem — including an unparseable release — is a typed
// Violation in the report.
func VerifyGeneralized(t *table.Table, release io.Reader, opts Options) (*Report, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	rep := newReporter(KindGeneralized, opts, t.Len())
	rel, structOK, err := parseGeneralized(t.Schema(), t.Len(), release, rep)
	if err != nil {
		return nil, err
	}
	if !structOK {
		return rep.finish(), nil
	}
	rows := rel.rows
	rep.report.ReleaseRows = len(rows) + rel.skipped
	rep.report.Groups = rel.groups

	// Row-aligned fidelity needs the release to have exactly one data row
	// per original tuple; rows the parser had to skip count as present (they
	// occupy a file position) but make per-row comparison unsafe only for
	// themselves — parsed rows keep their own file index (genRow.idx), so
	// the remaining rows still compare against the right original tuples.
	aligned := len(rows)+rel.skipped == t.Len()
	if !aligned {
		rep.add(ViolationRowCount, -1, -1, func() string {
			return fmt.Sprintf("release has %d data rows, the original table has %d", len(rows)+rel.skipped, t.Len())
		})
	}

	// Per-cell checks: every published QI label must be interpretable over
	// the original domain, and (when row counts reconcile) must cover the
	// original value it replaces. Each distinct label is parsed once.
	sch := t.Schema()
	d := sch.Dimensions()
	type parsedCell struct {
		cell  generalize.Cell
		known bool
	}
	cells := make([][]parsedCell, d)
	for j := range cells {
		p := newCellParser(sch.QI(j))
		cells[j] = make([]parsedCell, rel.qi[j].Cardinality())
		for code := range cells[j] {
			cells[j][code].cell, cells[j][code].known = p.parse(rel.qi[j].Label(code))
		}
	}
	// A "*" covers every value, so a row is checked only on its group's
	// other cells.
	for i := range rows {
		r := &rows[i]
		for j, code := range rel.groupQI[r.group*d : (r.group+1)*d] {
			if code < 0 {
				continue
			}
			c := &cells[j][code]
			if !c.known {
				rep.add(ViolationUnknownValue, r.group, r.idx, func() string {
					return fmt.Sprintf("row %d publishes %q for attribute %q, which is outside the original domain",
						r.idx, rel.qi[j].Label(int(code)), sch.QI(j).Name())
				})
				continue
			}
			if aligned && !c.cell.Covers(t.QIAt(r.idx, j)) {
				rep.add(ViolationQICoverage, r.group, r.idx, func() string {
					return fmt.Sprintf("row %d publishes %q for attribute %q, which does not cover the original value %q",
						r.idx, rel.qi[j].Label(int(code)), sch.QI(j).Name(), t.QILabel(r.idx, j))
				})
			}
		}
	}

	// Resolve the published sensitive labels to dense codes over the original
	// domain extended with any unseen labels. Labels are resolved in
	// first-appearance order, so unseen labels get the same extension codes
	// as a row-by-row resolution would give them.
	res := newSAResolver(sch.SA())
	saCodes := make([]int, rel.sa.Cardinality())
	saKnown := make([]bool, rel.sa.Cardinality())
	for code := range saCodes {
		saCodes[code], saKnown[code] = res.code(rel.sa.Label(code))
	}
	for i := range rows {
		r := &rows[i]
		if !saKnown[r.sa] {
			saKnown[r.sa] = true // report only the label's first row
			rep.add(ViolationUnknownValue, r.group, r.idx, func() string {
				return fmt.Sprintf("row %d publishes sensitive value %q, which is outside the original domain",
					r.idx, rel.sa.Label(r.sa))
			})
		}
	}

	// Each group's rows, in release order: members[start[g]:start[g+1]].
	start := make([]int, rel.groups+1)
	for i := range rows {
		start[rows[i].group+1]++
	}
	for g := 0; g < rel.groups; g++ {
		start[g+1] += start[g]
	}
	members := make([]int, len(rows))
	next := slices.Clone(start[:rel.groups])
	for i := range rows {
		g := rows[i].group
		members[next[g]] = i
		next[g]++
	}

	counter := newGroupCounter(res.domain())
	sa := t.SAView()
	for gid := 0; gid < rel.groups; gid++ {
		g := members[start[gid]:start[gid+1]]
		// Privacy: the group's published sensitive histogram must be
		// l-eligible regardless of what the original table holds.
		counter.reset()
		for _, i := range g {
			counter.addN(saCodes[rows[i].sa], 1)
		}
		checkGroupPrivacy(rep, gid, len(g), counter, res, opts)

		// Fidelity: the group's published sensitive multiset must equal the
		// sensitive multiset of the original rows it covers (each parsed row
		// maps to the original tuple at its own file index).
		if aligned {
			for _, i := range g {
				counter.addN(sa[rows[i].idx], -1)
			}
			reportMultisetDiff(rep, gid, counter, res)
		}
	}
	return rep.finish(), nil
}

// VerifyAnatomy audits anatomy's two-table release: the quasi-identifier
// table (Row, QI..., GroupID) and the sensitive table (GroupID, SA, Count).
// Groups are joined on the published GroupID; privacy is checked on the
// sensitive table's per-group histograms, and fidelity requires the QIT to
// reference every original tuple exactly once with its exact QI values, the
// ST to reconcile with the QIT group sizes, and each group's ST multiset to
// equal the original sensitive multiset of the tuples it covers.
func VerifyAnatomy(t *table.Table, qit, st io.Reader, opts Options) (*Report, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	rep := newReporter(KindAnatomy, opts, t.Len())
	qrows, qok, skipped, err := parseQIT(t.Schema(), qit, rep)
	if err != nil {
		return nil, err
	}
	entries, sok, err := parseST(t.Schema(), st, rep)
	if err != nil {
		return nil, err
	}
	rep.report.ReleaseRows = len(qrows) + skipped
	if !qok || !sok {
		return rep.finish(), nil
	}

	if len(qrows)+skipped != t.Len() {
		rep.add(ViolationRowCount, -1, -1, func() string {
			return fmt.Sprintf("QIT has %d data rows, the original table has %d", len(qrows)+skipped, t.Len())
		})
	}

	// Tuple references: each published Row id must name an original tuple,
	// and no tuple may be published twice. Valid references also get their
	// exact-QI fidelity check here.
	sch := t.Schema()
	d := sch.Dimensions()
	seen := make([]bool, t.Len())
	qitGroups := make(map[int][]int) // gid -> indices into qrows
	for i := range qrows {
		q := &qrows[i]
		if q.row < 0 || q.row >= t.Len() {
			rep.add(ViolationRowRef, q.gid, q.idx, func() string {
				return fmt.Sprintf("QIT row %d references tuple %d outside the original table [0,%d)", q.idx, q.row, t.Len())
			})
		} else if seen[q.row] {
			rep.add(ViolationRowRef, q.gid, q.idx, func() string {
				return fmt.Sprintf("QIT row %d references tuple %d, which another QIT row already covers", q.idx, q.row)
			})
		} else {
			seen[q.row] = true
			for j := 0; j < d; j++ {
				if q.qi[j] != t.QILabel(q.row, j) {
					rep.add(ViolationQICoverage, q.gid, q.idx, func() string {
						return fmt.Sprintf("QIT row %d publishes %q for attribute %q of tuple %d, the original value is %q (anatomy publishes QI values exactly)",
							q.idx, q.qi[j], sch.QI(j).Name(), q.row, t.QILabel(q.row, j))
					})
				}
			}
		}
		qitGroups[q.gid] = append(qitGroups[q.gid], i)
	}

	// Aggregate the sensitive table per (group, value) over the extended
	// dense domain, summing in full-width ints: duplicate entries for one
	// value are legal, but their sum must not be able to wrap the int32
	// histograms the privacy checks run on.
	res := newSAResolver(sch.SA())
	unknownSeen := make(map[string]bool)
	type stGroup struct {
		counts map[int]int // code -> summed published count
		size   int
	}
	stGroups := make(map[int]*stGroup)
	for i := range entries {
		e := &entries[i]
		code, known := res.code(e.label)
		if !known && !unknownSeen[e.label] {
			unknownSeen[e.label] = true
			rep.add(ViolationUnknownValue, e.gid, e.idx, func() string {
				return fmt.Sprintf("ST row %d publishes sensitive value %q, which is outside the original domain", e.idx, e.label)
			})
		}
		g := stGroups[e.gid]
		if g == nil {
			g = &stGroup{counts: make(map[int]int)}
			stGroups[e.gid] = g
		}
		g.counts[code] = satAdd(g.counts[code], e.count)
		g.size = satAdd(g.size, e.count)
	}

	// The two tables must publish the same group ids.
	gids := make([]int, 0, len(qitGroups))
	for gid := range qitGroups {
		gids = append(gids, gid)
	}
	sort.Ints(gids)
	for _, gid := range gids {
		if stGroups[gid] == nil {
			rep.add(ViolationGroupRef, gid, -1, func() string {
				return fmt.Sprintf("group %d appears in the QIT but not in the sensitive table", gid)
			})
		}
	}
	stIDs := make([]int, 0, len(stGroups))
	for gid := range stGroups {
		stIDs = append(stIDs, gid)
	}
	sort.Ints(stIDs)
	for _, gid := range stIDs {
		if qitGroups[gid] == nil {
			rep.add(ViolationGroupRef, gid, -1, func() string {
				return fmt.Sprintf("group %d appears in the sensitive table but not in the QIT", gid)
			})
		}
	}
	rep.report.Groups = len(qitGroups)

	counter := newGroupCounter(res.domain())
	sa := t.SAView()
	var codes []int
	for _, gid := range gids {
		members := qitGroups[gid]
		stg := stGroups[gid]
		if stg == nil {
			continue // group_ref already recorded
		}
		// Privacy over the published sensitive histogram, exactly as
		// published: ST counts are attacker-controlled, so the predicates
		// run on the full-width aggregates (checkGroupPrivacyCounts), never
		// on a narrowed or clamped copy. Codes are walked in sorted order so
		// violation messages are deterministic.
		codes = codes[:0]
		for code := range stg.counts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		checkGroupPrivacyCounts(rep, gid, codes, stg.counts, res, opts)

		// Fidelity needs the dense int32 diff counter; a published count
		// beyond the whole original table can never reconcile, so it is
		// flagged here and enters the counter clamped to an impossible
		// sentinel (t.Len()+1 exceeds every original count, keeping the
		// mismatch detectable without int32 overflow).
		counter.reset()
		for _, code := range codes {
			count := stg.counts[code]
			if count > t.Len() {
				rep.add(ViolationSTMismatch, gid, -1, func() string {
					return fmt.Sprintf("group %d publishes %d occurrences of sensitive value %q, more than the original table's %d rows",
						gid, count, res.label(code), t.Len())
				})
				count = t.Len() + 1
			}
			counter.addN(code, sat.Int32(count))
		}

		// The ST must reconcile with the QIT: the counts of a group sum to
		// the number of QIT rows in it.
		if stg.size != len(members) {
			rep.add(ViolationSTMismatch, gid, -1, func() string {
				return fmt.Sprintf("group %d has %d QIT rows but its sensitive-table counts sum to %d", gid, len(members), stg.size)
			})
		}
		// Fidelity: the published multiset must equal the original sensitive
		// multiset of the tuples the group covers (valid references only —
		// bad ones were already reported as row_ref).
		complete := true
		for _, i := range members {
			if r := qrows[i].row; r >= 0 && r < t.Len() {
				counter.addN(sa[r], -1)
			} else {
				complete = false
			}
		}
		if complete {
			reportMultisetDiff(rep, gid, counter, res)
		}
	}
	return rep.finish(), nil
}
