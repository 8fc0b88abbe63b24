package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/core"
	"ldiv/internal/generalize"
	"ldiv/internal/hilbert"
	"ldiv/internal/table"
)

func buildTable(rng *rand.Rand, n int) *table.Table {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 8), table.NewIntegerAttribute("B", 5)},
		table.NewIntegerAttribute("S", 4)), 0)
	for i := 0; i < n; i++ {
		tb.MustAppendRow([]int{rng.Intn(8), rng.Intn(5)}, rng.Intn(4))
	}
	return tb.Build()
}

func TestCountExact(t *testing.T) {
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 2)), 0)
	// A: 0,0,1,2,3 ; S: 0,1,0,1,0
	for i, a := range []int{0, 0, 1, 2, 3} {
		tb.MustAppendRow([]int{a}, i%2)
	}
	q := Query{QIPredicates: map[int][]int{0: {0, 1}}}
	tbl := tb.Build()
	if got := q.CountExact(tbl); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	q2 := Query{QIPredicates: map[int][]int{0: {0, 1}}, SAPredicate: []int{0}}
	if got := q2.CountExact(tbl); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
	q3 := Query{SAPredicate: []int{1}}
	if got := q3.CountExact(tbl); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

func TestEstimateIdentityIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := buildTable(rng, 200)
	groups := make([][]int, tbl.Len())
	for i := range groups {
		groups[i] = []int{i}
	}
	g, err := generalize.Suppress(tbl, generalize.NewPartition(groups))
	if err != nil {
		t.Fatal(err)
	}
	w, err := RandomWorkload(tbl, 20, 2, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		exact := w.Queries[i].CountExact(tbl)
		est := w.Queries[i].Estimate(g)
		if math.Abs(est-float64(exact)) > 1e-9 {
			t.Fatalf("query %d: identity publication estimate %g != exact %d", i, est, exact)
		}
	}
}

func TestEstimateHandComputed(t *testing.T) {
	// Two tuples in one group; attribute A (domain 4) is suppressed. A query
	// selecting half of A's domain should estimate half of each tuple.
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 2)), 0)
	tb.MustAppendRow([]int{0}, 0)
	tb.MustAppendRow([]int{3}, 1)
	tbl := tb.Build()
	g, err := generalize.Suppress(tbl, generalize.NewPartition([][]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{QIPredicates: map[int][]int{0: {0, 1}}}
	if est := q.Estimate(g); math.Abs(est-1.0) > 1e-12 {
		t.Errorf("estimate = %g, want 1.0 (each tuple contributes 2/4)", est)
	}
	// With an SA filter only the matching tuple contributes.
	q2 := Query{QIPredicates: map[int][]int{0: {0, 1}}, SAPredicate: []int{1}}
	if est := q2.Estimate(g); math.Abs(est-0.5) > 1e-12 {
		t.Errorf("estimate = %g, want 0.5", est)
	}
	// Sub-domain cells: the multi-dimensional view narrows A to {0,3}, so the
	// same query now sees 1 of 2 covered values per tuple.
	multi, err := generalize.MultiDimensional(tbl, generalize.NewPartition([][]int{{0, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if est := q.Estimate(multi); math.Abs(est-1.0) > 1e-12 {
		t.Errorf("multi-dimensional estimate = %g, want 1.0", est)
	}
}

func TestRandomWorkloadValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := buildTable(rng, 50)
	if _, err := RandomWorkload(tbl, 0, 1, 0.5, 1); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := RandomWorkload(tbl, 5, 0, 0.5, 1); err == nil {
		t.Error("zero dims accepted")
	}
	if _, err := RandomWorkload(tbl, 5, 3, 0.5, 1); err == nil {
		t.Error("dims > d accepted")
	}
	if _, err := RandomWorkload(tbl, 5, 1, 0, 1); err == nil {
		t.Error("zero selectivity accepted")
	}
	w, err := RandomWorkload(tbl, 5, 2, 0.3, 1)
	if err != nil || len(w.Queries) != 5 {
		t.Fatalf("workload generation failed: %v", err)
	}
	for _, q := range w.Queries {
		if len(q.QIPredicates) != 2 || len(q.SAPredicate) == 0 {
			t.Error("query shape wrong")
		}
	}
}

func TestEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := buildTable(rng, 400)
	res, err := core.NewHybridAnonymizer(3, hilbert.NewSuppressor(3)).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generalize.Suppress(tbl, res.Partition())
	if err != nil {
		t.Fatal(err)
	}
	w, err := RandomWorkload(tbl, 30, 2, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Exact) != 30 || len(ev.RelativeErrors) != 30 {
		t.Fatal("evaluation arrays wrong size")
	}
	if ev.MeanRelativeError < 0 || ev.MedianRelativeError < 0 {
		t.Error("negative error")
	}
	if ev.MedianRelativeError > ev.MeanRelativeError*10+1 {
		t.Error("median wildly exceeds mean; summary statistics look wrong")
	}
	if _, err := Evaluate(g, &Workload{}); err == nil {
		t.Error("empty workload accepted")
	}
}

// Property: estimates are conservative in total mass — summing a query that
// accepts everything returns exactly n regardless of generalization.
func TestEstimateTotalMassQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%50) + 10
		tbl := buildTable(rng, n)
		// Random partition into up to 5 groups.
		k := 1 + rng.Intn(5)
		groups := make([][]int, k)
		for r := 0; r < n; r++ {
			b := rng.Intn(k)
			groups[b] = append(groups[b], r)
		}
		g, err := generalize.Suppress(tbl, generalize.NewPartition(groups))
		if err != nil {
			return false
		}
		all := Query{QIPredicates: map[int][]int{0: rangeOf(8), 1: rangeOf(5)}}
		return math.Abs(all.Estimate(g)-float64(n)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func rangeOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Property: finer partitions never give (substantially) worse estimates in
// aggregate than the fully generalized single-group publication.
func TestEvaluateCoarseVsFine(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := buildTable(rng, 500)
	single, err := generalize.Suppress(tbl, generalize.NewPartition([][]int{allRows(tbl.Len())}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnonymizer(2).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := generalize.Suppress(tbl, res.Partition())
	if err != nil {
		t.Fatal(err)
	}
	w, err := RandomWorkload(tbl, 40, 2, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	evSingle, err := Evaluate(single, w)
	if err != nil {
		t.Fatal(err)
	}
	evFine, err := Evaluate(fine, w)
	if err != nil {
		t.Fatal(err)
	}
	if evFine.MeanRelativeError > evSingle.MeanRelativeError+0.05 {
		t.Errorf("TP publication (%.3f mean error) should answer queries better than full suppression (%.3f)",
			evFine.MeanRelativeError, evSingle.MeanRelativeError)
	}
}

func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
