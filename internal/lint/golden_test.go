package lint_test

import (
	"testing"

	"ldiv/internal/lint"
	"ldiv/internal/lint/analysistest"
)

// Each analyzer is pinned by golden files under testdata/src: positive cases
// annotated with // want, negative cases with none, and suppressed cases
// whose //lint:ignore must silence the diagnostic (the harness applies the
// same suppression filter as cmd/ldivlint).

func TestDetrange(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Detrange,
		"ldiv/internal/core",        // release-producing: positive + escape hatches
		"ldiv/internal/dataset",     // release-producing since the scenario corpus: positive + seeded-source idiom
		"ldiv/internal/attack",      // deterministic audit report: float sum over a map flagged
		"ldiv/internal/eligibility", // outside the deterministic set: all negative
	)
}

func TestViewsafety(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Viewsafety, "viewsafety")
}

func TestNarrowconv(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Narrowconv,
		"ldiv/internal/audit",   // count-carrying scope: positive + blessed helpers
		"ldiv/internal/metrics", // outside the scope: negative
	)
}

func TestPoolcheck(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Poolcheck, "poolcheck")
}

func TestDirective(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Directive, "directive")
}
