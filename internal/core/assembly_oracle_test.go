package core

// The TP result assembly that the row-order sweep replaced, retained as a
// test-only oracle: every group built into a multiset, phase one shedding
// pillars from every group (groups below l included), the surviving rows
// recovered per group, and normalize sorting everything into its published
// order. TestAssemblyMatchesSortingOracle asserts that the production path —
// groups below l routed straight to R, one owner-array sweep — produces the
// same Result on caller groupings in any order.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

// normalize sorts groups and rows for deterministic output.
func (r *Result) normalize() {
	sort.Ints(r.Residue)
	for _, g := range r.KeptGroups {
		sort.Ints(g)
	}
	sort.Slice(r.KeptGroups, func(i, j int) bool {
		return r.KeptGroups[i][0] < r.KeptGroups[j][0]
	})
	for _, g := range r.ResidueGroups {
		sort.Ints(g)
	}
	sort.Slice(r.ResidueGroups, func(i, j int) bool {
		if len(r.ResidueGroups[i]) == 0 || len(r.ResidueGroups[j]) == 0 {
			return len(r.ResidueGroups[i]) > len(r.ResidueGroups[j])
		}
		return r.ResidueGroups[i][0] < r.ResidueGroups[j][0]
	})
}

// resultOracle is the previous result assembly: survivors walked per group
// with a per-value budget, the residue read off its multiset, then sorted.
func (st *state) resultOracle(phase int) *Result {
	res := &Result{L: st.l, TerminationPhase: phase, Phase3Rounds: st.phase3Rounds, RemovedByPhase: st.removedByPhase}
	seen := make([]int32, st.domain)
	for gi, q := range st.groups {
		if q.size == 0 {
			continue
		}
		rows := make([]int, 0, q.size)
		for _, r := range st.orig[gi] {
			v := st.sa[r]
			if seen[v] < q.cnt[v] {
				seen[v]++
				rows = append(rows, r)
			}
		}
		for _, v := range q.vals {
			seen[v] = 0
		}
		res.KeptGroups = append(res.KeptGroups, rows)
	}
	res.Residue = st.residue.allRows()
	if len(res.Residue) > 0 {
		rg := make([]int, len(res.Residue))
		copy(rg, res.Residue)
		res.ResidueGroups = [][]int{rg}
	}
	res.normalize()
	return res
}

// anonymizeGroupsOracle is AnonymizeGroups before groups below l went
// straight to R: it builds every group and sheds pillars from each.
func anonymizeGroupsOracle(t *table.Table, groups [][]int, l int, skipPhaseTwo bool) (*Result, error) {
	if !eligibility.IsEligibleCounts(t.SACounts(), l) {
		return nil, ErrNotEligible
	}
	domain := t.SADomainSize()
	sa := t.SAView()
	st := &state{t: t, l: l, domain: domain, workers: 1, orig: groups, sa: sa, residue: newSAMultiset(domain), phase: 1}
	st.groups = buildGroupMultisets(groups, domain, sa, 0, 1)
	for gi, q := range st.groups {
		for !q.eligible(l) {
			st.moveToResidue(gi, q.firstPillar())
		}
	}
	if st.residueEligible() {
		return st.resultOracle(1), nil
	}
	if !skipPhaseTwo && st.phaseTwo() {
		return st.resultOracle(2), nil
	}
	st.phaseThree()
	return st.resultOracle(3), nil
}

// refineOracle is the previous TP+ refinement: groups copied, then sorted
// by normalize.
func refineOracle(t *table.Table, res *Result, r Refiner, l int) *Result {
	if len(res.Residue) == 0 {
		return res
	}
	groups, err := r.PartitionRows(t, res.Residue, l)
	if err != nil || validateResiduePartition(t, res.Residue, groups, l) != nil {
		return res
	}
	refined := *res
	refined.ResidueGroups = make([][]int, 0, len(groups))
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		refined.ResidueGroups = append(refined.ResidueGroups, append([]int(nil), g...))
	}
	refined.normalize()
	return &refined
}

// shuffledRefiner splits the residue in two at a random point when both
// halves are l-eligible, and returns the groups in random order with their
// rows shuffled and an empty group mixed in, so the refine sweep has to
// restore the published order on its own.
type shuffledRefiner struct{ rng *rand.Rand }

func (s shuffledRefiner) PartitionRows(t *table.Table, rows []int, l int) ([][]int, error) {
	rs := append([]int(nil), rows...)
	s.rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	groups := [][]int{rs}
	cut := s.rng.Intn(len(rs) + 1)
	counter := t.SAGroupCounter()
	if a, b := rs[:cut:cut], rs[cut:]; len(a) > 0 && len(b) > 0 &&
		eligibility.IsEligibleGroup(counter, a, l) && eligibility.IsEligibleGroup(counter, b, l) {
		groups = [][]int{b, a}
	}
	groups = append(groups, nil)
	s.rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	return groups, nil
}

// callerGroups turns a table's QI grouping into a caller partition in
// arbitrary order: some groups split at random points (every piece still
// shares its QI values), group order shuffled, rows shuffled inside each.
func callerGroups(rng *rand.Rand, tbl *table.Table) [][]int {
	var out [][]int
	for _, g := range tbl.GroupByQI() {
		rows := append([]int(nil), g...)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for len(rows) > 1 && rng.Intn(3) == 0 {
			cut := 1 + rng.Intn(len(rows)-1)
			out = append(out, rows[:cut:cut])
			rows = rows[cut:]
		}
		out = append(out, rows)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// oracleTable draws n rows over d QI attributes of domain qiDom and an SA
// domain of saDom values.
func oracleTable(rng *rand.Rand, n, d, qiDom, saDom int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := range qi {
		qi[j] = table.NewIntegerAttribute(fmt.Sprintf("A%d", j), qiDom)
	}
	tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", saDom)), 0)
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(qiDom)
		}
		tb.MustAppendRow(row, rng.Intn(saDom))
	}
	return tb.Build()
}

// sameWholeResult asserts every field of two results is equal.
func sameWholeResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got  %+v\n want %+v", label, *got, *want)
	}
	if got.Residue == nil {
		t.Fatalf("%s: Residue is nil, want a non-nil (possibly empty) slice", label)
	}
}

func TestAssemblyMatchesSortingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type tcase struct {
		label string
		tbl   *table.Table
		l     int
	}
	var cases []tcase
	for i := 0; i < 150; i++ {
		n := 1 + rng.Intn(150)
		d := 1 + rng.Intn(3)
		tbl := oracleTable(rng, n, d, 1+rng.Intn(5), 2+rng.Intn(14))
		cases = append(cases, tcase{fmt.Sprintf("random %d", i), tbl, 1 + rng.Intn(6)})
	}
	// l = 1: nothing is ever removed, so the residue is empty.
	cases = append(cases, tcase{"l=1", oracleTable(rng, 80, 2, 3, 5), 1})
	// l larger than every group: all QI values distinct, so phase one sends
	// every row to R.
	distinctb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 60)}, table.NewIntegerAttribute("S", 60)), 0)
	for i := 0; i < 60; i++ {
		distinctb.MustAppendRow([]int{i}, i%12)
	}
	distinct := distinctb.Build()
	cases = append(cases, tcase{"l above every group", distinct, 4})
	// Every group already l-eligible: the residue is empty at l = 3.
	eligibleGroupsb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 10)}, table.NewIntegerAttribute("S", 3)), 0)
	for i := 0; i < 60; i++ {
		eligibleGroupsb.MustAppendRow([]int{i % 10}, (i/10)%3)
	}
	eligibleGroups := eligibleGroupsb.Build()
	cases = append(cases, tcase{"empty residue", eligibleGroups, 3})

	checked, emptyResidue, allResidue := 0, 0, 0
	for _, tc := range cases {
		if !eligibility.IsEligibleTable(tc.tbl, tc.l) {
			continue
		}
		groups := callerGroups(rng, tc.tbl)
		for _, skip := range []bool{false, true} {
			label := fmt.Sprintf("%s (n=%d l=%d skip=%v)", tc.label, tc.tbl.Len(), tc.l, skip)
			want, err := anonymizeGroupsOracle(tc.tbl, groups, tc.l, skip)
			if err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			for _, workers := range []int{1, 4} {
				got, err := (&Anonymizer{L: tc.l, SkipPhaseTwo: skip, Workers: workers}).AnonymizeGroups(tc.tbl, groups)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", label, workers, err)
				}
				sameWholeResult(t, fmt.Sprintf("%s workers=%d", label, workers), got, want)
				if skip {
					continue // TP+ always runs phase two
				}

				seed := rng.Int63()
				refined, err := (&HybridAnonymizer{L: tc.l, Refiner: shuffledRefiner{rand.New(rand.NewSource(seed))}, Workers: workers}).AnonymizeGroups(tc.tbl, groups)
				if err != nil {
					t.Fatalf("%s workers=%d: hybrid: %v", label, workers, err)
				}
				sameWholeResult(t, fmt.Sprintf("%s workers=%d hybrid", label, workers), refined,
					refineOracle(tc.tbl, want, shuffledRefiner{rand.New(rand.NewSource(seed))}, tc.l))
			}
			checked++
			if len(want.Residue) == 0 {
				emptyResidue++
			}
			if len(want.Residue) == tc.tbl.Len() {
				allResidue++
			}
		}
	}
	if checked < 100 || emptyResidue == 0 || allResidue == 0 {
		t.Fatalf("weak coverage: %d checked, %d with an empty residue, %d with every row in R", checked, emptyResidue, allResidue)
	}
}
