package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

// goldenConfig is the reduced configuration of `ldivbench -rows 3000
// -klrows 1500 -projections 2`: every deterministic figure at a size that
// runs in well under a second.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows = 3000
	cfg.KLRows = 1500
	cfg.MaxProjections = 2
	cfg.Seed = 1
	return cfg
}

// renderDeterministic renders every figure whose values do not depend on
// wall-clock time: Figures 2/3/7/8, the phase-three study, Table 6 and the
// corpus sweep for two families.
func renderDeterministic(t *testing.T, r *Runner) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(Format(Table6()))
	for _, f := range []struct {
		name string
		run  func() ([]Figure, error)
	}{
		{"2", r.Figure2}, {"3", r.Figure3}, {"7", r.Figure7}, {"8", r.Figure8},
		{"corpus", func() ([]Figure, error) { return r.Corpus([]string{"heavytail-sa", "near-duplicate"}) }},
	} {
		figs, err := f.run()
		if err != nil {
			t.Fatalf("figure %s: %v", f.name, err)
		}
		for _, fig := range figs {
			b.WriteString(Format(fig))
		}
	}
	rep, err := r.Phase3Frequency()
	if err != nil {
		t.Fatalf("phase-three study: %v", err)
	}
	fmt.Fprintf(&b, "Phase-three study: %d TP runs, %d reaching phase three\n", rep.Runs, rep.Phase3Runs)
	dims := make([]int, 0, len(rep.ByDimension))
	for d := range rep.ByDimension {
		dims = append(dims, d)
	}
	sort.Ints(dims)
	for _, d := range dims {
		fmt.Fprintf(&b, "  d=%d: %d\n", d, rep.ByDimension[d])
	}
	return b.String()
}

// TestDeterministicFiguresGolden pins the bytes of every deterministic
// figure. A change that moves stars, KL or the phase-three count fails here;
// regenerate with `go test ./internal/experiment -run Golden -update` only
// when the change is meant to move them.
func TestDeterministicFiguresGolden(t *testing.T) {
	got := renderDeterministic(t, NewRunner(goldenConfig()))
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("deterministic figures differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
