package experiment

import (
	"strings"
	"testing"

	"ldiv"
)

// tinyConfig keeps the harness tests fast while exercising every code path.
func tinyConfig() Config {
	return Config{
		Rows:           1500,
		Seed:           1,
		MaxProjections: 2,
		Ls:             []int{2, 4},
		Ds:             []int{1, 2},
		SampleSizes:    []int{500, 1000},
		KLRows:         800,
	}
}

func TestRunnerCachesBaseTables(t *testing.T) {
	r := NewRunner(tinyConfig())
	a, err := r.SAL()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SAL()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("SAL base table not cached")
	}
	if _, err := r.OCC(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.base("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestRun checks the harness's one dispatch: every algorithm the figures
// and the corpus sweep name runs, its stars and termination phase are those
// of ldiv.AnonymizeWith on the same table, and names without a generalized
// release are rejected.
func TestRun(t *testing.T) {
	r := NewRunner(tinyConfig())
	sal, err := r.SAL()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := sal.ProjectNames([]string{"Age", "Education"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, list := range [][]string{starAlgorithms, klAlgorithms, CorpusAlgorithms} {
		names = append(names, list...)
	}
	const l = 3
	for _, algo := range names {
		out, err := Run(proj, l, algo, true)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		gen, phase, err := ldiv.AnonymizeWith(proj, l, strings.ToLower(algo))
		if err != nil {
			t.Fatalf("%s: library: %v", algo, err)
		}
		if out.Stars != gen.Stars() || out.TerminationPhase != phase {
			t.Errorf("%s: Run gave stars %d phase %d, ldiv.AnonymizeWith stars %d phase %d",
				algo, out.Stars, out.TerminationPhase, gen.Stars(), phase)
		}
		if out.Algorithm != algo || out.SuppressedTuples < 0 || out.KL < 0 || out.Elapsed <= 0 {
			t.Errorf("%s: implausible outcome %+v", algo, out)
		}
	}
	for _, bad := range []string{"anatomy", "bogus"} {
		if _, err := Run(proj, l, bad, false); err == nil {
			t.Errorf("Run accepted %q", bad)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	r := NewRunner(tinyConfig())
	figs, err := r.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("Figure 2 should have a SAL and an OCC panel, got %d", len(figs))
	}
	for _, fig := range figs {
		if len(fig.Series) != 3 {
			t.Fatalf("figure %s has %d series, want 3", fig.ID, len(fig.Series))
		}
		var tpPlus, hilbert, tp *Series
		for i := range fig.Series {
			switch fig.Series[i].Name {
			case AlgoTPPlus:
				tpPlus = &fig.Series[i]
			case AlgoHilbert:
				hilbert = &fig.Series[i]
			case AlgoTP:
				tp = &fig.Series[i]
			}
		}
		if tpPlus == nil || hilbert == nil || tp == nil {
			t.Fatal("missing series")
		}
		for i := range tpPlus.Points {
			if tpPlus.Points[i].Y > tp.Points[i].Y+1e-9 {
				t.Errorf("figure %s: TP+ stars exceed TP at l=%g", fig.ID, tpPlus.Points[i].X)
			}
		}
		txt := Format(fig)
		if !strings.Contains(txt, "TP+") || !strings.Contains(txt, "Figure") {
			t.Error("Format output missing expected content")
		}
	}
}

func TestFigure6AndPhase3(t *testing.T) {
	r := NewRunner(tinyConfig())
	figs, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 || len(figs[0].Series) != 3 {
		t.Fatalf("Figure 6 shape wrong")
	}
	if len(figs[0].Series[0].Points) != len(tinyConfig().SampleSizes) {
		t.Error("Figure 6 missing sample-size points")
	}
	rep, err := r.Phase3Frequency()
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := 2 * len(tinyConfig().Ds) * len(tinyConfig().Ls) * tinyConfig().MaxProjections
	// d=1 has at most 7 projections and d=2 at most 21, both above the cap,
	// so every (dataset, d, l) contributes exactly MaxProjections runs.
	if rep.Runs != wantRuns {
		t.Errorf("phase-3 study ran %d times, want %d", rep.Runs, wantRuns)
	}
	if rep.Phase3Runs > rep.Runs {
		t.Error("phase-3 count exceeds total runs")
	}
}

func TestRemainingFiguresSmoke(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ls = []int{2}
	cfg.Ds = []int{1, 2}
	r := NewRunner(cfg)
	for name, f := range map[string]func() ([]Figure, error){
		"3": r.Figure3, "4": r.Figure4, "5": r.Figure5, "8": r.Figure8,
	} {
		figs, err := f()
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		if len(figs) != 2 {
			t.Fatalf("figure %s: %d panels, want 2", name, len(figs))
		}
		for _, fig := range figs {
			if len(fig.Series) == 0 || len(fig.Series[0].Points) == 0 {
				t.Fatalf("figure %s: empty series", name)
			}
			for _, s := range fig.Series {
				for _, p := range s.Points {
					if p.Y < 0 {
						t.Fatalf("figure %s: negative measurement", name)
					}
				}
			}
		}
	}
}

func TestFigure7KLComparison(t *testing.T) {
	cfg := tinyConfig()
	cfg.Ls = []int{3}
	r := NewRunner(cfg)
	figs, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range figs {
		if len(fig.Series) != 2 {
			t.Fatalf("figure %s has %d series, want 2", fig.ID, len(fig.Series))
		}
		for _, s := range fig.Series {
			for _, p := range s.Points {
				if p.Y < 0 {
					t.Errorf("negative KL in %s/%s", fig.ID, s.Name)
				}
			}
		}
	}
}

func TestTable6Figure(t *testing.T) {
	fig := Table6()
	if len(fig.Series) != 1 || len(fig.Series[0].Points) != 9 {
		t.Fatalf("Table 6 should list 9 attributes, got %d", len(fig.Series[0].Points))
	}
	if fig.Series[0].Points[0].Y != 79 {
		t.Errorf("Age cardinality %g, want 79", fig.Series[0].Points[0].Y)
	}
}

func TestDefaultAndPaperConfigs(t *testing.T) {
	d := DefaultConfig()
	p := PaperConfig()
	if d.Rows <= 0 || p.Rows != 600000 {
		t.Error("configs implausible")
	}
	if len(d.Ls) != 9 || len(p.Ds) != 7 {
		t.Error("sweep ranges wrong")
	}
}
