package ldiv_test

import (
	"bytes"
	"strings"
	"testing"

	"ldiv"
)

// buildHospital constructs the Table 1 microdata through the public API.
func buildHospital(t testing.TB) *ldiv.Table {
	t.Helper()
	age := ldiv.NewAttribute("Age")
	gender := ldiv.NewAttribute("Gender")
	edu := ldiv.NewAttribute("Education")
	schema, err := ldiv.NewSchema([]*ldiv.Attribute{age, gender, edu}, ldiv.NewAttribute("Disease"))
	if err != nil {
		t.Fatal(err)
	}
	tb := ldiv.NewTableBuilder(schema)
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
		if err := tb.AppendLabels([]string{r[0], r[1], r[2]}, r[3]); err != nil {
			t.Fatal(err)
		}
	}
	return tb.Build()
}

func TestPublicAPIPipelines(t *testing.T) {
	tbl := buildHospital(t)
	if !ldiv.IsEligible(tbl, 2) {
		t.Fatal("hospital table should be 2-eligible")
	}
	if ldiv.MaxEligibleL(tbl) < 2 {
		t.Fatal("MaxEligibleL too small")
	}

	tp, err := ldiv.TP(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tp.SuppressedTuples() != 4 || tp.Stars(tbl) != 8 {
		t.Errorf("TP on Table 1: %d tuples / %d stars, want 4 / 8", tp.SuppressedTuples(), tp.Stars(tbl))
	}
	gen, err := tp.Generalize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Stars() != 8 {
		t.Errorf("generalized stars = %d", gen.Stars())
	}

	tpp, err := ldiv.TPPlus(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tpp.Stars(tbl) > tp.Stars(tbl) {
		t.Error("TP+ worse than TP")
	}
	if !ldiv.IsLDiverse(tbl, tpp.Partition(), 2) {
		t.Error("TP+ partition not 2-diverse")
	}

	hp, err := ldiv.Hilbert(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(tbl, hp, 2) {
		t.Error("Hilbert partition not 2-diverse")
	}

	tdsGen, err := ldiv.TDS(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(tbl, tdsGen.Partition, 2) {
		t.Error("TDS output not 2-diverse")
	}
	kl, err := ldiv.KLDivergence(tdsGen)
	if err != nil || kl < 0 {
		t.Errorf("KL = %g, err %v", kl, err)
	}

	mon, err := ldiv.Mondrian(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(tbl, mon.Partition, 2) {
		t.Error("Mondrian output not 2-diverse")
	}

	if _, err := ldiv.TP(tbl, 5); err == nil {
		t.Error("infeasible l accepted")
	}
}

func TestPublicAPISyntheticData(t *testing.T) {
	sal, err := ldiv.GenerateDataset("sal", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	occ, err := ldiv.GenerateDataset("occ", 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sal.Len() != 3000 || occ.Len() != 3000 {
		t.Fatal("wrong cardinality")
	}
	proj, err := sal.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ldiv.TPPlus(proj, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(proj, res.Partition(), 4) {
		t.Error("TP+ on SAL-4 projection not 4-diverse")
	}
	if res.TerminationPhase == 3 {
		t.Log("note: phase three was reached on synthetic data")
	}
}

func TestPublicAPICSV(t *testing.T) {
	csv := "Age,Gender,Disease\n30,M,flu\n30,F,cold\n40,M,flu\n40,F,cold\n"
	tbl, err := ldiv.ReadCSV(strings.NewReader(csv), []string{"Age", "Gender"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 4 || tbl.Dimensions() != 2 {
		t.Fatalf("CSV parse produced %dx%d", tbl.Len(), tbl.Dimensions())
	}
	var buf bytes.Buffer
	if err := ldiv.WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Disease") {
		t.Error("CSV output missing header")
	}

	res, err := ldiv.TP(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := ldiv.Suppress(tbl, res.Partition())
	if err != nil {
		t.Fatal(err)
	}
	if gen.SuppressedTuples() > tbl.Len() {
		t.Error("implausible suppression count")
	}
}

func TestPublicAPITwoDiverseOptimum(t *testing.T) {
	schema, _ := ldiv.NewSchema(
		[]*ldiv.Attribute{ldiv.NewIntegerAttribute("A", 3), ldiv.NewIntegerAttribute("B", 3)},
		ldiv.NewIntegerAttribute("S", 2))
	tb := ldiv.NewTableBuilder(schema)
	pairs := [][3]int{{0, 0, 0}, {0, 0, 1}, {1, 1, 0}, {1, 1, 1}, {2, 2, 0}, {2, 2, 1}}
	for _, p := range pairs {
		if err := tb.AppendRow([]int{p[0], p[1]}, p[2]); err != nil {
			t.Fatal(err)
		}
	}
	tbl := tb.Build()
	p, stars, err := ldiv.OptimalTwoDiverse(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if stars != 0 {
		t.Errorf("perfectly matchable table needs %d stars, want 0", stars)
	}
	if !ldiv.IsLDiverse(tbl, p, 2) {
		t.Error("matching partition not 2-diverse")
	}
	// TP must also find the zero-star solution here, and never beat the
	// matching optimum on any 2-SA table.
	res, err := ldiv.TP(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stars(tbl) < stars {
		t.Error("TP beat the provable optimum, which is impossible")
	}
}

func TestPublicAPITDSWithHierarchies(t *testing.T) {
	tbl := buildHospital(t)
	hs := []*ldiv.Hierarchy{
		ldiv.NewFanoutHierarchy(tbl.Schema().QI(0), 2),
		ldiv.NewFanoutHierarchy(tbl.Schema().QI(1), 2),
		ldiv.NewFanoutHierarchy(tbl.Schema().QI(2), 2),
	}
	gen, err := ldiv.TDSWithHierarchies(tbl, 2, hs)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(tbl, gen.Partition, 2) {
		t.Error("TDS with custom hierarchies not 2-diverse")
	}
	multi, err := ldiv.MultiDimensional(tbl, gen.Partition)
	if err != nil {
		t.Fatal(err)
	}
	klMulti, err := ldiv.KLDivergence(multi)
	if err != nil {
		t.Fatal(err)
	}
	klTDS, err := ldiv.KLDivergence(gen)
	if err != nil {
		t.Fatal(err)
	}
	if klMulti > klTDS+1e-9 {
		t.Errorf("multi-dimensional view (%g) should not lose more than TDS (%g)", klMulti, klTDS)
	}
}

func TestPublicAPIAuditAndUtility(t *testing.T) {
	tbl := buildHospital(t)

	// Linking-attack audit: Table 2 style partition has a homogeneity breach,
	// the 2-diverse TP output does not.
	breach, err := ldiv.AuditPartition(tbl, ldiv.NewPartition([][]int{{0, 1}, {2, 3}, {4, 5, 6, 7}, {8, 9}}))
	if err != nil {
		t.Fatal(err)
	}
	if breach.Disclosed == 0 || breach.BreachProbability(2) == 0 {
		t.Error("Table 2 partition should exhibit the homogeneity breach")
	}
	res, err := ldiv.TP(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := res.Generalize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := ldiv.AuditLinkingAttack(gen)
	if err != nil {
		t.Fatal(err)
	}
	if safe.MaxConfidence > 0.5+1e-12 {
		t.Errorf("2-diverse publication leaks confidence %g", safe.MaxConfidence)
	}

	// Count-query utility evaluation.
	w, err := ldiv.RandomWorkload(tbl, 10, 2, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := ldiv.EvaluateWorkload(gen, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Exact) != 10 || ev.MeanRelativeError < 0 {
		t.Error("workload evaluation implausible")
	}

	// Anatomy publication.
	an, err := ldiv.Anatomize(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Groups) == 0 {
		t.Fatal("anatomy produced no buckets")
	}
	if !ldiv.IsLDiverse(tbl, ldiv.NewPartition(an.Groups), 2) {
		t.Error("anatomy buckets are not 2-diverse")
	}

	// Stricter principles on the TP partition.
	p := res.Partition()
	if !ldiv.DistinctLDiverse(tbl, p, 2) {
		t.Error("2-diverse partition must have 2 distinct values per group")
	}
	_ = ldiv.EntropyLDiverse(tbl, p, 2)
	_ = ldiv.RecursiveCLDiverse(tbl, p, 2.0, 2)
	if !ldiv.AlphaKAnonymous(tbl, p, 0.5, 2) {
		t.Error("2-diverse groups of size >= 2 satisfy (0.5,2)-anonymity")
	}
}

func TestPublicAPIPrecoarsenedGroups(t *testing.T) {
	tbl := buildHospital(t)
	// Coarsen by Gender only, then run TP on those groups (Section 5.6).
	byGender := make(map[int][]int)
	for i := 0; i < tbl.Len(); i++ {
		byGender[tbl.QIAt(i, 1)] = append(byGender[tbl.QIAt(i, 1)], i)
	}
	var groups [][]int
	for _, g := range byGender {
		groups = append(groups, g)
	}
	res, err := ldiv.TPWithGroups(tbl, groups, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ldiv.IsLDiverse(tbl, res.Partition(), 2) {
		t.Error("pre-coarsened TP not 2-diverse")
	}
	if res.SuppressedTuples() > 4 {
		t.Errorf("coarser groups should not suppress more tuples than exact grouping: %d", res.SuppressedTuples())
	}
}

func TestPublicAPIVerifyRelease(t *testing.T) {
	tbl := buildHospital(t)

	// Every generalization algorithm's release must pass the auditor through
	// the public API, end to end over CSV bytes.
	for _, algo := range []string{"tp", "tp+", "hilbert", "tds", "mondrian", "incognito"} {
		gen, _, err := ldiv.AnonymizeWith(tbl, 2, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		var b bytes.Buffer
		if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
			t.Fatal(err)
		}
		rep, err := ldiv.VerifyRelease(tbl, bytes.NewReader(b.Bytes()), ldiv.VerifyOptions{L: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK {
			t.Fatalf("%s: release failed its audit: %+v", algo, rep.Violations)
		}
	}

	// Anatomy's two-table release through the dedicated entry point.
	an, err := ldiv.Anatomize(tbl, 2)
	if err != nil {
		t.Fatal(err)
	}
	var qit, st bytes.Buffer
	if err := ldiv.WriteAnatomyQITCSV(&qit, tbl, an); err != nil {
		t.Fatal(err)
	}
	if err := ldiv.WriteAnatomySTCSV(&st, tbl, an); err != nil {
		t.Fatal(err)
	}
	rep, err := ldiv.VerifyAnatomyRelease(tbl, bytes.NewReader(qit.Bytes()), bytes.NewReader(st.Bytes()), ldiv.VerifyOptions{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("anatomy release failed its audit: %+v", rep.Violations)
	}

	// A corrupted release must be refuted with a typed violation.
	gen, _, err := ldiv.AnonymizeWith(tbl, 2, "tp+")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ldiv.WriteGeneralizedCSV(&b, gen); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(b.String(), "HIV", "dyspepsia", 1)
	rep, err = ldiv.VerifyRelease(tbl, strings.NewReader(tampered), ldiv.VerifyOptions{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK || rep.Fidelity {
		t.Fatalf("tampered release passed: %+v", rep)
	}
}
