package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
	"ldiv/internal/hilbert"
	"ldiv/internal/table"
)

// workerCounts are the parallelism levels every determinism test sweeps:
// fully serial, the smallest parallel configuration, and an oversubscribed
// pool (more workers than this container has CPUs).
var workerCounts = []int{1, 2, 8}

// runTP runs plain TP at the given worker bound.
func runTP(t *testing.T, tbl *table.Table, l, workers int, skip bool) *core.Result {
	t.Helper()
	res, err := (&core.Anonymizer{L: l, SkipPhaseTwo: skip, Workers: workers}).Anonymize(tbl)
	if err != nil {
		t.Fatalf("TP workers=%d: %v", workers, err)
	}
	return res
}

// runTPPlus runs the TP+ hybrid (Hilbert residue refiner) at the given
// worker bound.
func runTPPlus(t *testing.T, tbl *table.Table, l, workers int) *core.Result {
	t.Helper()
	h := &core.HybridAnonymizer{L: l, Refiner: hilbert.NewSuppressor(l), Workers: workers}
	res, err := h.Anonymize(tbl)
	if err != nil {
		t.Fatalf("TP+ workers=%d: %v", workers, err)
	}
	return res
}

// assertWorkerInvariance runs TP, the skip-phase-two ablation, and TP+ at
// every worker count and asserts the Results are field-identical to the
// serial run; plain TP is additionally checked against the map-based oracle.
// Run under -race (CI does), this is also the data-race check for the
// parallel multiset build and the sharded phase-three index rebuild.
func assertWorkerInvariance(t *testing.T, label string, tbl *table.Table, l int) {
	t.Helper()
	serialTP := runTP(t, tbl, l, 1, false)
	serialSkip := runTP(t, tbl, l, 1, true)
	serialPlus := runTPPlus(t, tbl, l, 1)

	ref, err := core.RefAnonymize(tbl, l, false)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	sameResult(t, label+" serial-vs-oracle", serialTP, ref)

	for _, w := range workerCounts[1:] {
		sameResult(t, fmt.Sprintf("%s TP workers=%d", label, w), runTP(t, tbl, l, w, false), serialTP)
		sameResult(t, fmt.Sprintf("%s TP-skip2 workers=%d", label, w), runTP(t, tbl, l, w, true), serialSkip)
		sameResult(t, fmt.Sprintf("%s TP+ workers=%d", label, w), runTPPlus(t, tbl, l, w), serialPlus)
	}
}

// TestParallelCoreDeterministicRandomized sweeps randomized tables (varying
// size, dimensionality, SA skew and l) across worker counts {1, 2, 8}.
func TestParallelCoreDeterministicRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 0
	for trials < 25 {
		n := 50 + rng.Intn(2000)
		d := 1 + rng.Intn(3)
		qiDom := 2 + rng.Intn(7)
		saDom := 2 + rng.Intn(12)
		l := 2 + rng.Intn(5)
		exponent := float64(rng.Intn(3))
		tbl := skewedTable(rng, n, d, qiDom, saDom, exponent)
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		trials++
		assertWorkerInvariance(t, fmt.Sprintf("trial %d (n=%d d=%d saDom=%d l=%d)", trials, n, d, saDom, l), tbl, l)
	}
}

// TestParallelCoreDeterministicPhase3Heavy pins worker-count invariance on
// the engineered phase-3-heavy workloads — the shapes whose group counts are
// large enough to actually shard the inverted-index rebuild — plus the census
// benchmark table the figures run on.
func TestParallelCoreDeterministicPhase3Heavy(t *testing.T) {
	for _, tc := range []struct {
		l, a, b int
	}{
		{3, 8, 12},
		{6, 40, 60},
		{4, 80, 100},
	} {
		tbl := dataset.Phase3HeavyTable(tc.l, tc.a, tc.b)
		assertWorkerInvariance(t, fmt.Sprintf("phase3heavy l=%d a=%d b=%d", tc.l, tc.a, tc.b), tbl, tc.l)
	}
	for _, l := range []int{2, 6, 10} {
		tbl := dataset.BenchTable(4000, 3, 8, 48, true, 7)
		assertWorkerInvariance(t, fmt.Sprintf("census l=%d", l), tbl, l)
	}
}
