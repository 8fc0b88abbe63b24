package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/bruteforce"
	"ldiv/internal/core"
	"ldiv/internal/eligibility"
	"ldiv/internal/hilbert"
	"ldiv/internal/table"
)

// hospital builds Table 1 of the paper.
func hospital(t testing.TB) *table.Table {
	t.Helper()
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewAttribute("Age"), table.NewAttribute("Gender"), table.NewAttribute("Education")},
		table.NewAttribute("Disease")))
	rows := [][4]string{
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Bachelor", "pneumonia"},
		{"[30,50)", "M", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{">=50", "F", "HighSch", "dyspepsia"},
		{">=50", "F", "HighSch", "pneumonia"},
	}
	for _, r := range rows {
		if err := tbl.AppendLabels([]string{r[0], r[1], r[2]}, r[3]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// groupTable builds a table with one QI attribute (one value per group) whose
// QI-group sensitive histograms are exactly the given vectors, mirroring the
// vector notation of the paper's running examples.
func groupTable(t testing.TB, groups [][]int) *table.Table {
	t.Helper()
	m := 0
	for _, g := range groups {
		if len(g) > m {
			m = len(g)
		}
	}
	tbl := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("G", len(groups))},
		table.NewIntegerAttribute("S", m)))
	for gi, hist := range groups {
		for v, cnt := range hist {
			for c := 0; c < cnt; c++ {
				tbl.MustAppendRow([]int{gi}, v)
			}
		}
	}
	return tbl
}

func checkResult(t *testing.T, tbl *table.Table, res *core.Result, l int) {
	t.Helper()
	p := res.Partition()
	if err := p.Validate(tbl); err != nil {
		t.Fatalf("result partition invalid: %v", err)
	}
	if !eligibility.IsLDiversePartition(tbl, p.Groups, l) {
		t.Fatalf("result partition is not %d-diverse", l)
	}
	if !eligibility.IsEligibleRows(tbl, res.Residue, l) {
		t.Fatalf("residue set is not %d-eligible", l)
	}
	for _, g := range res.KeptGroups {
		key := tbl.QIKey(g[0])
		for _, r := range g {
			if tbl.QIKey(r) != key {
				t.Fatal("kept group mixes distinct QI values")
			}
		}
		if !eligibility.IsEligibleRows(tbl, g, l) {
			t.Fatalf("kept group is not %d-eligible", l)
		}
	}
	removed := 0
	for p := 1; p <= 3; p++ {
		removed += res.RemovedByPhase[p]
	}
	if removed != len(res.Residue) {
		t.Fatalf("RemovedByPhase sums to %d, residue has %d", removed, len(res.Residue))
	}
}

// TestTable1L2 follows the worked example of Section 5.2: with l = 2 the
// first three QI-groups of Table 1 are eliminated in phase one, R is already
// 2-eligible and the run stops with 4 suppressed tuples and 8 stars (exactly
// the 2-diverse publication of Table 3).
func TestTable1L2(t *testing.T) {
	tbl := hospital(t)
	res, err := core.NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tbl, res, 2)
	if res.TerminationPhase != 1 {
		t.Errorf("termination phase = %d, want 1", res.TerminationPhase)
	}
	if got := res.SuppressedTuples(); got != 4 {
		t.Errorf("suppressed tuples = %d, want 4", got)
	}
	if got := res.Stars(tbl); got != 8 {
		t.Errorf("stars = %d, want 8", got)
	}
	hist := saHistogramOf(tbl, res.Residue)
	hiv, _ := tbl.Schema().SA().Code("HIV")
	pneu, _ := tbl.Schema().SA().Code("pneumonia")
	bron, _ := tbl.Schema().SA().Code("bronchitis")
	if hist[hiv] != 2 || hist[pneu] != 1 || hist[bron] != 1 {
		t.Errorf("residue histogram = %v", hist)
	}
	if got := len(res.KeptGroups); got != 2 {
		t.Errorf("kept groups = %d, want 2", got)
	}
}

// TestPhaseTwoExample reproduces the Section 5.3 running example:
// Q1=(3,1,1,2,3), Q2=(0,2,2,4,4), Q3=(4,4,0,0,0) with l = 3. Phase one moves
// all of Q3 to R, phase two tops R up to 3-eligibility, and the guarantees of
// Lemmas 5 and 6 hold: h(R) stays 4 and |R| lands in [12, 14].
func TestPhaseTwoExample(t *testing.T) {
	tbl := groupTable(t, [][]int{
		{3, 1, 1, 2, 3},
		{0, 2, 2, 4, 4},
		{4, 4, 0, 0, 0},
	})
	const l = 3
	res, err := core.NewAnonymizer(l).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tbl, res, l)
	if res.TerminationPhase != 2 {
		t.Errorf("termination phase = %d, want 2", res.TerminationPhase)
	}
	if res.RemovedByPhase[1] != 8 {
		t.Errorf("phase one removed %d tuples, want 8 (all of Q3)", res.RemovedByPhase[1])
	}
	hist := saHistogramOf(tbl, res.Residue)
	if h := eligibility.MaxFrequency(hist); h != 4 {
		t.Errorf("h(R) = %d, want 4 (Lemma 5)", h)
	}
	if n := len(res.Residue); n < 12 || n > 14 {
		t.Errorf("|R| = %d, want within [12, 14] (Lemma 6)", n)
	}
}

// TestL2NeverReachesPhase3 checks Theorem 2 on random inputs: with l = 2 the
// algorithm always terminates during the first two phases.
func TestL2NeverReachesPhase3(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		tbl := randomTable(rng, 2+rng.Intn(20), 1+rng.Intn(3), 2+rng.Intn(3), 2+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, 2) {
			continue
		}
		res, err := core.NewAnonymizer(2).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, tbl, res, 2)
		if res.TerminationPhase == 3 {
			t.Fatalf("trial %d: l=2 run reached phase three", trial)
		}
	}
}

// randomTable builds a random table with n rows, d QI attributes of the given
// domain size and m sensitive values.
func randomTable(rng *rand.Rand, n, d, dom, m int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := 0; j < d; j++ {
		qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), dom)
	}
	tbl := table.New(table.MustSchema(qi, table.NewIntegerAttribute("S", m)))
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(dom)
		}
		tbl.MustAppendRow(row, rng.Intn(m))
	}
	return tbl
}

// TestAgainstBruteForce verifies the approximation guarantees empirically on
// exhaustive small instances:
//   - |R| <= l * OPT for tuple minimization (Theorem 3),
//   - phase-1 termination is optimal (Corollary 1),
//   - phase-2 termination costs at most l-1 extra tuples (Corollary 3),
//   - stars <= l*d*OPT stars (Lemma 2 + Theorem 3).
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 0
	for trials < 120 {
		n := 4 + rng.Intn(7) // <= 10 rows
		d := 1 + rng.Intn(2)
		m := 2 + rng.Intn(3)
		l := 2 + rng.Intn(2)
		tbl := randomTable(rng, n, d, 2, m)
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		trials++
		res, err := core.NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, tbl, res, l)

		optTuples, _, err := bruteforce.OptimalSuppressedTuples(tbl, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.SuppressedTuples() > l*optTuples {
			t.Fatalf("|R| = %d exceeds l*OPT = %d*%d", res.SuppressedTuples(), l, optTuples)
		}
		if res.TerminationPhase == 1 && res.SuppressedTuples() != optTuples {
			t.Fatalf("phase-1 termination with |R| = %d but OPT = %d", res.SuppressedTuples(), optTuples)
		}
		if res.TerminationPhase <= 2 && res.SuppressedTuples() > optTuples+l-1 {
			t.Fatalf("phase-2 termination with |R| = %d but OPT+l-1 = %d", res.SuppressedTuples(), optTuples+l-1)
		}

		optStars, _, err := bruteforce.OptimalStars(tbl, l)
		if err != nil {
			t.Fatal(err)
		}
		if optStars > 0 && res.Stars(tbl) > l*d*optStars {
			t.Fatalf("stars = %d exceeds l*d*OPT = %d", res.Stars(tbl), l*d*optStars)
		}
		if optStars == 0 && res.Stars(tbl) != 0 {
			// When the identity partition is already l-diverse, phase one
			// removes nothing and TP must also be star-free.
			t.Fatalf("OPT needs no stars but TP used %d", res.Stars(tbl))
		}
	}
}

// TestL2AgainstOptimalPlusOne checks the sharper Theorem 2 bound |R| <= OPT+1
// for l = 2 on exhaustive small instances.
func TestL2AgainstOptimalPlusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 0
	for trials < 80 {
		n := 4 + rng.Intn(8)
		tbl := randomTable(rng, n, 1+rng.Intn(2), 2, 2+rng.Intn(2))
		if !eligibility.IsEligibleTable(tbl, 2) {
			continue
		}
		trials++
		res, err := core.NewAnonymizer(2).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := bruteforce.OptimalSuppressedTuples(tbl, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.SuppressedTuples() > opt+1 {
			t.Fatalf("l=2: |R| = %d > OPT+1 = %d", res.SuppressedTuples(), opt+1)
		}
	}
}

// TestSkipPhaseTwoAblation checks that the ablation variant (phase one, then
// straight to phase three) still produces valid l-diverse output, and that on
// aggregate the three-phase configuration suppresses no more tuples than the
// ablated one — the design rationale for the middle phase. (Per instance the
// ablated run can occasionally win by luck; the phase-two guarantee is the
// OPT+l-1 bound, not per-input dominance.)
func TestSkipPhaseTwoAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	totalFull, totalAblated := 0, 0
	for trial := 0; trial < 80; trial++ {
		l := 2 + rng.Intn(3)
		tbl := randomTable(rng, 20+rng.Intn(60), 1+rng.Intn(3), 3, l+rng.Intn(3))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		full, err := core.NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		ablated, err := (&core.Anonymizer{L: l, SkipPhaseTwo: true}).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, tbl, full, l)
		checkResult(t, tbl, ablated, l)
		totalFull += full.SuppressedTuples()
		totalAblated += ablated.SuppressedTuples()
	}
	if totalFull > totalAblated {
		t.Errorf("across all trials phase two suppressed more tuples (%d) than the ablated variant (%d)",
			totalFull, totalAblated)
	}
}

// TestNotEligible checks the feasibility precondition.
func TestNotEligible(t *testing.T) {
	tbl := groupTable(t, [][]int{{5, 1}})
	if _, err := core.NewAnonymizer(3).Anonymize(tbl); err == nil {
		t.Fatal("expected ErrNotEligible")
	}
	if _, err := core.NewAnonymizer(0).Anonymize(tbl); err == nil {
		t.Fatal("expected error for l = 0")
	}
}

// TestAlreadyDiverse checks that a table whose QI-groups are already
// l-eligible is returned untouched (zero suppressed tuples, phase 1).
func TestAlreadyDiverse(t *testing.T) {
	tbl := groupTable(t, [][]int{{2, 2, 2}, {1, 1, 1}})
	res, err := core.NewAnonymizer(3).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, tbl, res, 3)
	if res.SuppressedTuples() != 0 || res.TerminationPhase != 1 {
		t.Errorf("got %d suppressed tuples, phase %d", res.SuppressedTuples(), res.TerminationPhase)
	}
	if res.Stars(tbl) != 0 {
		t.Errorf("stars = %d, want 0", res.Stars(tbl))
	}
}

// TestHybridNeverWorse checks that TP+ never uses more stars than TP and
// still produces an l-diverse partition.
func TestHybridNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		l := 2 + rng.Intn(3)
		tbl := randomTable(rng, 30+rng.Intn(40), 1+rng.Intn(3), 3, l+rng.Intn(3))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		tp, err := core.NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		tpp, err := core.NewHybridAnonymizer(l, hilbert.NewSuppressor(l)).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, tbl, tpp, l)
		if tpp.Stars(tbl) > tp.Stars(tbl) {
			t.Fatalf("TP+ stars %d exceed TP stars %d", tpp.Stars(tbl), tp.Stars(tbl))
		}
		if tpp.SuppressedTuples() != tp.SuppressedTuples() {
			t.Fatalf("TP+ changed the residue size: %d vs %d", tpp.SuppressedTuples(), tp.SuppressedTuples())
		}
	}
}

// TestHybridRejectsBadRefiner checks that an invalid refinement is rejected
// and the plain TP result is preserved.
func TestHybridRejectsBadRefiner(t *testing.T) {
	tbl := hospital(t)
	h := core.NewHybridAnonymizer(2, badRefiner{})
	res, err := h.Anonymize(tbl)
	if err == nil {
		t.Fatal("expected an error describing the invalid refinement")
	}
	if res == nil {
		t.Fatal("plain TP result should still be returned")
	}
	checkResult(t, tbl, res, 2)
	if len(res.ResidueGroups) != 1 {
		t.Errorf("invalid refinement should leave a single residue group, got %d", len(res.ResidueGroups))
	}
}

type badRefiner struct{}

func (badRefiner) PartitionRows(t *table.Table, rows []int, l int) ([][]int, error) {
	// Returns singleton groups, which cannot be l-eligible for l >= 2.
	out := make([][]int, len(rows))
	for i, r := range rows {
		out[i] = []int{r}
	}
	return out, nil
}

// TestAnonymizeGroupsPrecoarsened exercises the Section 5.6 preprocessing
// workflow: the caller provides coarser groups than exact QI equality.
func TestAnonymizeGroupsPrecoarsened(t *testing.T) {
	tbl := hospital(t)
	// Coarsen Age away: group by (Gender, Education) only.
	byKey := make(map[string][]int)
	for i := 0; i < tbl.Len(); i++ {
		k := tbl.QILabel(i, 1) + "|" + tbl.QILabel(i, 2)
		byKey[k] = append(byKey[k], i)
	}
	var groups [][]int
	for _, g := range byKey {
		groups = append(groups, g)
	}
	res, err := core.NewAnonymizer(2).AnonymizeGroups(tbl, groups)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition()
	if err := p.Validate(tbl); err != nil {
		t.Fatal(err)
	}
	if !eligibility.IsLDiversePartition(tbl, p.Groups, 2) {
		t.Fatal("pre-coarsened run is not 2-diverse")
	}
	// Coarser groups can only reduce the number of suppressed tuples compared
	// with exact-QI grouping.
	exact, err := core.NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuppressedTuples() > exact.SuppressedTuples() {
		t.Errorf("pre-coarsened run suppressed %d tuples, exact grouping %d", res.SuppressedTuples(), exact.SuppressedTuples())
	}
}

// Property: on random l-eligible tables, TP always yields a valid l-diverse
// partition and the residue never exceeds the trivial bound n.
func TestTPValidityQuick(t *testing.T) {
	f := func(seed int64, nRaw, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%60) + 2
		l := int(lRaw%4) + 2
		tbl := randomTable(rng, n, 1+rng.Intn(3), 3, l+rng.Intn(3))
		if !eligibility.IsEligibleTable(tbl, l) {
			return true // infeasible inputs are out of scope
		}
		res, err := core.NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			return false
		}
		p := res.Partition()
		if err := p.Validate(tbl); err != nil {
			return false
		}
		if !eligibility.IsLDiversePartition(tbl, p.Groups, l) {
			return false
		}
		return len(res.Residue) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// saHistogramOf is the map-based SA histogram of the given rows, the oracle
// the residue checks compare against.
func saHistogramOf(tbl *table.Table, rows []int) map[int]int {
	h := make(map[int]int)
	for _, r := range rows {
		h[tbl.SAValue(r)]++
	}
	return h
}
