package dataset_test

import (
	"testing"

	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
)

// TestBenchTableEligibility pins down the contract the BenchmarkAnonymize
// suite relies on: both SA distributions stay l-eligible up to l = 10, the
// Zipf variant is genuinely skewed, and generation is deterministic.
func TestBenchTableEligibility(t *testing.T) {
	for _, zipf := range []bool{false, true} {
		tbl := dataset.BenchTable(10000, 3, 8, 48, zipf, 1)
		if tbl.Len() != 10000 || tbl.Dimensions() != 3 {
			t.Fatalf("zipf=%v: got %d rows, %d dims", zipf, tbl.Len(), tbl.Dimensions())
		}
		if maxL := eligibility.MaxEligibleL(tbl); maxL < 10 {
			t.Errorf("zipf=%v: MaxEligibleL = %d, want >= 10", zipf, maxL)
		}
		again := dataset.BenchTable(10000, 3, 8, 48, zipf, 1)
		if !tbl.Equal(again) {
			t.Errorf("zipf=%v: generation is not deterministic", zipf)
		}
	}
	uniform := dataset.BenchTable(10000, 3, 8, 48, false, 1)
	skewed := dataset.BenchTable(10000, 3, 8, 48, true, 1)
	if mu, ms := eligibility.MaxFrequencyCounts(uniform.SACounts()), eligibility.MaxFrequencyCounts(skewed.SACounts()); ms < 2*mu {
		t.Errorf("zipf head count %d is not at least twice the uniform head count %d", ms, mu)
	}
}

// TestPhase3HeavyTableEntersPhase3 asserts the property the table is
// engineered for: with phase two disabled, TP must terminate in phase three
// after at least one round, and the output must still be a valid l-diverse
// partition.
func TestPhase3HeavyTableEntersPhase3(t *testing.T) {
	for _, l := range []int{4, 6, 8} {
		tbl := dataset.Phase3HeavyTable(l, 40, 60)
		if !eligibility.IsEligibleCounts(tbl.SACounts(), l) {
			t.Fatalf("l=%d: engineered table is not l-eligible overall", l)
		}
		res, err := (&core.Anonymizer{L: l, SkipPhaseTwo: true}).Anonymize(tbl)
		if err != nil {
			t.Fatalf("l=%d: %v", l, err)
		}
		if res.TerminationPhase != 3 {
			t.Errorf("l=%d: terminated in phase %d, want 3", l, res.TerminationPhase)
		}
		if res.Phase3Rounds < 1 {
			t.Errorf("l=%d: Phase3Rounds = %d, want >= 1", l, res.Phase3Rounds)
		}
		p := res.Partition()
		if err := p.Validate(tbl); err != nil {
			t.Errorf("l=%d: invalid partition: %v", l, err)
		}
		if !eligibility.IsLDiversePartition(tbl, p.Groups, l) {
			t.Errorf("l=%d: partition is not l-diverse", l)
		}
	}
}
