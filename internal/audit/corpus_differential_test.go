package audit_test

// The scenario-corpus differential harness: every family of the
// internal/dataset registry, across every shipped algorithm and the l range
// of the evaluation, must produce releases the independent auditor accepts —
// and the cells where no release can exist must be refused by every
// algorithm (the pinned expected-infeasible verdicts). Together with the
// randomized sweep in differential_test.go this is the repo's strongest
// end-to-end correctness evidence: the corpus families are engineered to sit
// far outside the census envelope (correlated QI/SA, heavy-tail sensitive
// domains, deep unbalanced taxonomies, near-duplicate signatures, degenerate
// edges), so the algorithms are exercised where they actually differ.
//
// Knobs (CI and local smoke runs):
//
//	DIFF_FAMILIES  comma-separated family subset, or "all"/"" for the
//	               whole catalog (unknown names fail the test);
//	DIFF_SEEDS     seeds per family (default 2; the scheduled CI job
//	               raises it for a deeper sweep).
//
// The full default run audits 400+ releases; -short drops to one seed and
// skips the floor assertion.

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"ldiv"
	"ldiv/internal/dataset"
)

// corpusRows sizes each family for the harness: big enough that the family's
// property materializes (heavy tails need room), small enough that the
// 400+-release sweep stays test-suite fast.
var corpusRows = map[string]int{
	"sal":            400,
	"occ":            400,
	"corr-sa":        600,
	"heavytail-sa":   1200,
	"deep-taxonomy":  500,
	"near-duplicate": 600,
	"single-group":   240,
	"distinct-sa":    240,
	"sa-card-l":      240,
	"one-row-groups": 240,
}

// selectedFamilies resolves DIFF_FAMILIES against the registry.
func selectedFamilies(t *testing.T) []string {
	t.Helper()
	env := strings.TrimSpace(os.Getenv("DIFF_FAMILIES"))
	if env == "" || env == "all" {
		return dataset.Families()
	}
	var out []string
	for _, name := range strings.Split(env, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := dataset.Lookup(name); !ok {
			t.Fatalf("DIFF_FAMILIES names unknown family %q (catalog: %s)",
				name, strings.Join(dataset.Families(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		t.Fatal("DIFF_FAMILIES selected no families")
	}
	return out
}

// diffSeeds resolves DIFF_SEEDS (default 2, 1 under -short).
func diffSeeds(t *testing.T) int {
	t.Helper()
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	if env := strings.TrimSpace(os.Getenv("DIFF_SEEDS")); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("invalid DIFF_SEEDS %q", env)
		}
		seeds = n
	}
	return seeds
}

func TestDifferentialCorpus(t *testing.T) {
	familyNames := selectedFamilies(t)
	seeds := diffSeeds(t)
	fullRun := len(familyNames) == len(dataset.Families()) && seeds >= 2

	audited, infeasible := 0, 0
	for _, name := range familyNames {
		fam, _ := dataset.Lookup(name)
		rows, ok := corpusRows[name]
		if !ok {
			// A newly registered family rides along at a safe default; add
			// a tuned row count above when it lands.
			rows = 400
		}
		for s := 0; s < seeds; s++ {
			cfg := dataset.Config{Rows: rows, Seed: int64(1000*s + 17)}
			tab, err := fam.Generate(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: generate: %v", name, s, err)
			}
			// The family's own property must hold before anything is
			// audited against it (go test -race runs this too, per the
			// corpus acceptance contract).
			if err := fam.Validate(tab, cfg); err != nil {
				t.Fatalf("%s seed %d: self-check failed: %v", name, s, err)
			}
			maxL := ldiv.MaxEligibleL(tab)
			for _, l := range []int{2, 3, 4} {
				if l > maxL {
					// Pinned expected-infeasible verdict: past the
					// eligibility bound every algorithm must refuse — a
					// release here would be a privacy bug, not a feature.
					for _, algo := range ldiv.Algorithms {
						if _, _, err := renderRelease(tab, l, algo); err == nil {
							t.Errorf("%s seed %d l=%d %s: produced a release for an infeasible table (max eligible l = %d)",
								name, s, l, algo, maxL)
						}
					}
					infeasible++
					continue
				}
				for _, algo := range ldiv.Algorithms {
					release, st, err := renderRelease(tab, l, algo)
					if err != nil {
						t.Errorf("%s seed %d l=%d %s: algorithm failed on an eligible table: %v", name, s, l, algo, err)
						continue
					}
					var rep *ldiv.ReleaseReport
					if algo == "anatomy" {
						rep, err = ldiv.VerifyAnatomyRelease(tab, bytes.NewReader(release), bytes.NewReader(st), ldiv.VerifyOptions{L: l})
					} else {
						rep, err = ldiv.VerifyRelease(tab, bytes.NewReader(release), ldiv.VerifyOptions{L: l})
					}
					if err != nil {
						t.Fatalf("%s seed %d l=%d %s: verify error: %v", name, s, l, algo, err)
					}
					if algo != "anatomy" {
						checkOracle(t, tab, release, ldiv.VerifyOptions{L: l}, rep)
					}
					audited++
					if !rep.OK {
						cmd := dumpReproducer(t, tab, release, st, l, algo)
						t.Errorf("%s seed %d l=%d %s: release failed the audit with %d violation(s), first: %+v\nreplay: %s",
							name, s, l, algo, rep.ViolationCount, rep.Violations[0], cmd)
					}
				}
			}
		}
	}
	if audited == 0 {
		t.Fatal("the corpus sweep audited no releases")
	}
	// The acceptance floor of the corpus: the full catalog at default seeds
	// must put 400+ audited releases through all seven algorithms.
	if fullRun && audited < 400 {
		t.Errorf("full corpus run audited only %d releases, want >= 400", audited)
	}
	t.Logf("audited %d releases across %d families x %d seeds (%d expected-infeasible cells pinned)",
		audited, len(familyNames), seeds, infeasible)
}

// TestCorpusExpectedInfeasible pins the one shipped cell that is infeasible
// by construction: sa-card-l at its default l=3 cannot release at l=4, and
// the harness above must classify it as expected-infeasible rather than
// skipping it silently.
func TestCorpusExpectedInfeasible(t *testing.T) {
	tab, err := dataset.GenerateValidated("sa-card-l", dataset.Config{Rows: 240, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if maxL := ldiv.MaxEligibleL(tab); maxL != 3 {
		t.Fatalf("sa-card-l default table has max eligible l = %d, want 3", maxL)
	}
	for _, algo := range ldiv.Algorithms {
		if _, _, err := renderRelease(tab, 4, algo); err == nil {
			t.Errorf("%s released an l=4 publication of a table that is only 3-eligible", algo)
		}
	}
}
