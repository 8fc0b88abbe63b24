// This file implements the scenario-corpus sweep: one figure per dataset
// family of internal/dataset, crossing every generalization algorithm with
// the small diversity parameters the adversarial families are engineered
// around. It is not part of the paper (the paper evaluates SAL/OCC only) and
// is therefore excluded from `ldivbench -fig all`, keeping the deterministic
// paper figures byte-identical.

package experiment

import (
	"fmt"

	"ldiv/internal/dataset"
	"ldiv/internal/eligibility"
)

// CorpusAlgorithms is the display order of the corpus sweep's series: every
// generalization algorithm of the repository. Anatomy is excluded because its
// two-table release has no star count to plot.
var CorpusAlgorithms = []string{AlgoTP, AlgoTPPlus, AlgoHilbert, AlgoTDS, AlgoMondrian, AlgoIncognito}

// corpusLs is the l-sweep of the corpus figures. The adversarial families are
// engineered around small l (sa-card-l caps eligibility at its configured l,
// single-group and near-duplicate stress the group structure rather than the
// diversity depth), so the sweep stays in the regime every family supports.
var corpusLs = []int{2, 3, 4}

// corpusRows returns the per-family cardinality of the corpus sweep: the
// configured CorpusRows, defaulting to 6000. The sweep crosses every family
// with every algorithm — including the lattice-search baselines that are far
// slower than the paper's suppression algorithms — so it runs on tables well
// below the paper-figure cardinality.
func (r *Runner) corpusRows() int {
	if r.Cfg.CorpusRows > 0 {
		return r.Cfg.CorpusRows
	}
	return 6000
}

// Corpus runs the scenario-corpus sweep over the named dataset families (nil
// or empty means the whole catalog, in registration order) and returns one
// figure per family: a series per generalization algorithm with the points
// (l, stars) for every l in {2, 3, 4} the family's table is eligible for.
// Infeasible l values (l > MaxEligibleL, e.g. l=4 on the sa-card-l edge
// family) are omitted from every series rather than reported as failures —
// the differential harness in internal/audit pins that every algorithm
// refuses those cells. Each family's table passes its Validate self-check
// before any algorithm runs.
func (r *Runner) Corpus(families []string) ([]Figure, error) {
	if len(families) == 0 {
		families = dataset.Families()
	}
	figs := make([]Figure, 0, len(families))
	for _, name := range families {
		fam, ok := dataset.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown dataset family %q", name)
		}
		tab, err := dataset.GenerateValidated(fam.Name, dataset.Config{Rows: r.corpusRows(), Seed: r.Cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("experiment: generating family %s: %v", fam.Name, err)
		}
		maxL := eligibility.MaxEligibleL(tab)

		var ls []int
		for _, l := range corpusLs {
			if l <= maxL {
				ls = append(ls, l)
			}
		}

		// One cell per (algorithm, feasible l); parallel.Map returns the
		// outcomes in cell order, so the figure is deterministic for every
		// worker count.
		cells := make([]cell, 0, len(CorpusAlgorithms)*len(ls))
		for _, algo := range CorpusAlgorithms {
			for _, l := range ls {
				cells = append(cells, cell{table: tab, l: l, algo: algo})
			}
		}
		outs, err := r.runCells(cells, false)
		if err != nil {
			return nil, fmt.Errorf("experiment: family %s: %v", fam.Name, err)
		}

		fig := Figure{
			ID:     "corpus-" + fam.Name,
			Title:  fmt.Sprintf("Scenario corpus: %s (%s; n=%d, max eligible l=%d)", fam.Name, fam.Description, tab.Len(), maxL),
			XLabel: "l",
			YLabel: "stars",
		}
		for ai, algo := range CorpusAlgorithms {
			s := Series{Name: algo, Points: make([]Point, 0, len(ls))}
			for li, l := range ls {
				out := outs[ai*len(ls)+li]
				s.Points = append(s.Points, Point{X: float64(l), Y: float64(out.Stars)})
			}
			fig.Series = append(fig.Series, s)
		}
		figs = append(figs, fig)
	}
	return figs, nil
}
