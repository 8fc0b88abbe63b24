package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/table"
)

// skewedTable builds a random table whose SA distribution follows a power law
// of the given exponent (0 = uniform), so the equivalence test covers both
// flat and heavily-skewed sensitive histograms.
func skewedTable(rng *rand.Rand, n, d, qiDom, saDom int, exponent float64) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := range qi {
		qi[j] = table.NewIntegerAttribute(fmt.Sprintf("A%d", j), qiDom)
	}
	tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", saDom)), 0)
	weights := make([]float64, saDom)
	total := 0.0
	for v := range weights {
		w := 1.0
		for e := 0.0; e < exponent; e++ {
			w /= float64(v + 2)
		}
		weights[v] = w
		total += w
	}
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(qiDom)
		}
		x := rng.Float64() * total
		sa := 0
		for v, w := range weights {
			x -= w
			if x <= 0 {
				sa = v
				break
			}
		}
		tb.MustAppendRow(row, sa)
	}
	return tb.Build()
}

// sameResult asserts deep equality of every field of two TP results.
func sameResult(t *testing.T, label string, flat, ref *core.Result) {
	t.Helper()
	if flat.TerminationPhase != ref.TerminationPhase {
		t.Fatalf("%s: termination phase %d vs reference %d", label, flat.TerminationPhase, ref.TerminationPhase)
	}
	if flat.Phase3Rounds != ref.Phase3Rounds {
		t.Fatalf("%s: phase-3 rounds %d vs reference %d", label, flat.Phase3Rounds, ref.Phase3Rounds)
	}
	if flat.RemovedByPhase != ref.RemovedByPhase {
		t.Fatalf("%s: removed-by-phase %v vs reference %v", label, flat.RemovedByPhase, ref.RemovedByPhase)
	}
	if !reflect.DeepEqual(flat.Residue, ref.Residue) {
		t.Fatalf("%s: residue %v vs reference %v", label, flat.Residue, ref.Residue)
	}
	if !reflect.DeepEqual(flat.KeptGroups, ref.KeptGroups) {
		t.Fatalf("%s: kept groups %v vs reference %v", label, flat.KeptGroups, ref.KeptGroups)
	}
	if !reflect.DeepEqual(flat.ResidueGroups, ref.ResidueGroups) {
		t.Fatalf("%s: residue groups %v vs reference %v", label, flat.ResidueGroups, ref.ResidueGroups)
	}
}

// TestFlatCoreMatchesMapReference is the equivalence property test of the
// flat-array rewrite: across randomized tables varying l, SA skew, SA domain
// size and group granularity — and in both the standard and the
// skip-phase-two (ablation) configurations — the production core must
// produce a Result identical field-for-field to the retained map-based
// reference implementation.
func TestFlatCoreMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 0
	for trials < 400 {
		n := 2 + rng.Intn(120)
		d := 1 + rng.Intn(3)
		qiDom := 1 + rng.Intn(4)
		saDom := 2 + rng.Intn(12)
		l := 2 + rng.Intn(5)
		exponent := float64(rng.Intn(3)) // 0 = uniform, up to strongly skewed
		tbl := skewedTable(rng, n, d, qiDom, saDom, exponent)
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		trials++
		for _, skip := range []bool{false, true} {
			label := fmt.Sprintf("trial %d (n=%d d=%d saDom=%d l=%d exp=%v skip=%v)",
				trials, n, d, saDom, l, exponent, skip)
			flat, err := (&core.Anonymizer{L: l, SkipPhaseTwo: skip}).Anonymize(tbl)
			if err != nil {
				t.Fatalf("%s: flat: %v", label, err)
			}
			ref, err := core.RefAnonymize(tbl, l, skip)
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}
			sameResult(t, label, flat, ref)
		}
	}
}

// TestFlatCoreMatchesReferenceOnPhase3Heavy pins the equivalence on the
// engineered workloads that are guaranteed to exercise the phase-three greedy
// cover — the code path the inverted group index rewrote.
func TestFlatCoreMatchesReferenceOnPhase3Heavy(t *testing.T) {
	for _, l := range []int{3, 4, 6, 8} {
		for _, shape := range [][2]int{{8, 12}, {40, 60}} {
			tbl := dataset.Phase3HeavyTable(l, shape[0], shape[1])
			if !eligibility.IsEligibleTable(tbl, l) {
				t.Fatalf("l=%d shape=%v: table not eligible", l, shape)
			}
			for _, skip := range []bool{false, true} {
				label := fmt.Sprintf("l=%d shape=%v skip=%v", l, shape, skip)
				flat, err := (&core.Anonymizer{L: l, SkipPhaseTwo: skip}).Anonymize(tbl)
				if err != nil {
					t.Fatalf("%s: flat: %v", label, err)
				}
				ref, err := core.RefAnonymize(tbl, l, skip)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				if skip && flat.TerminationPhase != 3 {
					t.Errorf("%s: expected phase-3 termination, got %d", label, flat.TerminationPhase)
				}
				sameResult(t, label, flat, ref)
			}
		}
	}
}

// TestFlatCoreMatchesReferenceOnCensus checks equivalence on the harness's
// realistic census workload (the data every figure runs on).
func TestFlatCoreMatchesReferenceOnCensus(t *testing.T) {
	tbl := dataset.BenchTable(4000, 3, 8, 48, true, 7)
	for _, l := range []int{2, 6, 10} {
		flat, err := core.NewAnonymizer(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.RefAnonymize(tbl, l, false)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("census l=%d", l), flat, ref)
	}
}

// BenchmarkTPCore pits the flat-array production core against the retained
// map-based reference on identical workloads — the BenchmarkAnonymize variant
// matrix (l x SA skew) plus the phase-3-heavy table — producing the
// before/after comparison recorded in EXPERIMENTS.md. Run with -benchmem:
// the flat core's advantage is mostly in allocations. Both sides anonymize a
// fresh copy of the table each iteration (made with the timer stopped), so
// both time their grouping rather than the table's GroupByQI memo.
func BenchmarkTPCore(b *testing.B) {
	fresh := func(b *testing.B, tbl *table.Table) *table.Table {
		b.StopTimer()
		c := tbl.Clone()
		b.StartTimer()
		return c
	}
	run := func(b *testing.B, tbl *table.Table, l int, skip bool) {
		b.Run("flat", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (&core.Anonymizer{L: l, SkipPhaseTwo: skip}).Anonymize(fresh(b, tbl)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("map-reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.RefAnonymize(fresh(b, tbl), l, skip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, l := range []int{2, 6, 10} {
		for _, skew := range []string{"uniform", "zipf"} {
			tbl := dataset.BenchTable(10000, 3, 8, 48, skew == "zipf", 1)
			b.Run(fmt.Sprintf("l=%d/%s", l, skew), func(b *testing.B) { run(b, tbl, l, false) })
		}
	}
	b.Run("phase3heavy/l=6", func(b *testing.B) { run(b, dataset.Phase3HeavyTable(6, 40, 60), 6, true) })
}
