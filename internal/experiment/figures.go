package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"ldiv/internal/dataset"
	"ldiv/internal/table"
)

// starAlgorithms are the algorithms compared in Figures 2-6.
var starAlgorithms = []string{AlgoHilbert, AlgoTP, AlgoTPPlus}

// klAlgorithms are the algorithms compared in Figures 7-8.
var klAlgorithms = []string{AlgoTDS, AlgoTPPlus}

// Figure2 reproduces "Average number of stars vs. l" on SAL-4 and OCC-4.
func (r *Runner) Figure2() ([]Figure, error) {
	return r.sweepL("2", "Average number of stars vs. l", "stars", 4, starAlgorithms, false)
}

// Figure3 reproduces "Average number of stars vs. d" at l = 6.
func (r *Runner) Figure3() ([]Figure, error) {
	return r.sweepD("3", "Average number of stars vs. d (l=6)", "stars", 6, starAlgorithms, false)
}

// Figure4 reproduces "Computation time vs. l" on SAL-4 and OCC-4.
func (r *Runner) Figure4() ([]Figure, error) {
	return r.sweepL("4", "Computation time vs. l", "seconds", 4, starAlgorithms, false)
}

// Figure5 reproduces "Computation time vs. d" at l = 4.
func (r *Runner) Figure5() ([]Figure, error) {
	return r.sweepD("5", "Computation time vs. d (l=4)", "seconds", 4, starAlgorithms, false)
}

// Figure6 reproduces "Computation time vs. n" on SAL-4 and OCC-4 at l = 6.
func (r *Runner) Figure6() ([]Figure, error) {
	const l = 6
	var figures []Figure
	for _, ds := range []string{"SAL", "OCC"} {
		tables, err := r.projections(ds, 4)
		if err != nil {
			return nil, err
		}
		fig := Figure{
			ID:     "6" + suffix(ds),
			Title:  fmt.Sprintf("Computation time vs. n (%s-4, l=%d)", ds, l),
			XLabel: "dataset cardinality n",
			YLabel: "seconds",
		}
		series := make([]Series, len(starAlgorithms))
		for i, algo := range starAlgorithms {
			series[i] = Series{Name: algo}
		}
		// One size at a time: its samples are dense copies, so drawing
		// every size up front would hold all of them at once. Each size's
		// rng is consumed serially over the projections, and every
		// algorithm measures the exact same samples.
		for _, size := range r.Cfg.SampleSizes {
			rng := rand.New(rand.NewSource(r.Cfg.Seed + int64(size)))
			samples := make([]*table.Table, len(tables))
			for ti, t := range tables {
				if size < t.Len() {
					samples[ti] = t.Sample(size, rng)
				} else {
					samples[ti] = t
				}
			}
			var cells []cell
			for _, algo := range starAlgorithms {
				for _, sample := range samples {
					cells = append(cells, cell{table: sample, l: l, algo: algo})
				}
			}
			outs, err := r.runCells(cells, false)
			if err != nil {
				return nil, err
			}
			for i := range starAlgorithms {
				_, _, secs, _, err := averageOutcome(outs[i*len(samples) : (i+1)*len(samples)])
				if err != nil {
					return nil, err
				}
				series[i].Points = append(series[i].Points, Point{X: float64(size), Y: secs})
			}
		}
		fig.Series = series
		figures = append(figures, fig)
	}
	return figures, nil
}

// Figure7 reproduces "KL-divergence vs. l" (TDS vs TP+) on SAL-4 and OCC-4.
func (r *Runner) Figure7() ([]Figure, error) {
	kr := r.klRunner()
	return kr.sweepL("7", "KL-divergence vs. l", "KL-divergence", 4, klAlgorithms, true)
}

// Figure8 reproduces "KL-divergence vs. d" (TDS vs TP+) at l = 6.
func (r *Runner) Figure8() ([]Figure, error) {
	kr := r.klRunner()
	return kr.sweepD("8", "KL-divergence vs. d (l=6)", "KL-divergence", 6, klAlgorithms, true)
}

// klRunner returns a runner possibly scaled down for the KL figures.
func (r *Runner) klRunner() *Runner {
	if r.Cfg.KLRows == 0 || r.Cfg.KLRows >= r.Cfg.Rows {
		return r
	}
	cfg := r.Cfg
	cfg.Rows = cfg.KLRows
	return NewRunner(cfg)
}

// Phase3Frequency reproduces the Section 6.1 study: it runs TP on every
// SAL-d / OCC-d projection for every l and reports how many runs reached
// phase three. The paper observes zero.
type Phase3Report struct {
	Runs        int
	Phase3Runs  int
	ByDimension map[int]int // d -> phase-3 runs
}

// Phase3Frequency runs the study over the configured d and l ranges. Each TP
// run is one pool task; the counts are aggregated from the index-ordered
// outcomes, so the report is identical for every worker count.
func (r *Runner) Phase3Frequency() (*Phase3Report, error) {
	var cells []cell
	var dims []int // dims[i] is the dimensionality of cells[i]
	for _, ds := range []string{"SAL", "OCC"} {
		for _, d := range r.Cfg.Ds {
			tables, err := r.projections(ds, d)
			if err != nil {
				return nil, err
			}
			for _, l := range r.Cfg.Ls {
				for _, t := range tables {
					cells = append(cells, cell{table: t, l: l, algo: AlgoTP})
					dims = append(dims, d)
				}
			}
		}
	}
	outs, err := r.runCells(cells, false)
	if err != nil {
		return nil, err
	}
	rep := &Phase3Report{ByDimension: make(map[int]int)}
	for i, out := range outs {
		rep.Runs++
		if out.TerminationPhase == 3 {
			rep.Phase3Runs++
			rep.ByDimension[dims[i]]++
		}
	}
	return rep, nil
}

// Table6 returns the attribute domain sizes used by the generators.
func Table6() Figure {
	fig := Figure{ID: "T6", Title: "Attribute domain sizes (Table 6)", XLabel: "attribute", YLabel: "domain size"}
	s := Series{Name: "cardinality"}
	for i := range dataset.QINames {
		s.Points = append(s.Points, Point{X: float64(i), Y: float64(dataset.QICardinalities[i])})
	}
	s.Points = append(s.Points, Point{X: float64(len(dataset.QINames)), Y: dataset.IncomeCardinality})
	s.Points = append(s.Points, Point{X: float64(len(dataset.QINames) + 1), Y: dataset.OccupationCardinality})
	fig.Series = append(fig.Series, s)
	return fig
}

// sweepL produces one figure per dataset with l on the x axis. Every
// (algorithm, l, projection) cell is an independent pool task; the series are
// then assembled from the index-ordered outcomes, so rows keep their serial
// order for every worker count.
func (r *Runner) sweepL(id, title, ylabel string, d int, algos []string, withKL bool) ([]Figure, error) {
	var figures []Figure
	for _, ds := range []string{"SAL", "OCC"} {
		tables, err := r.projections(ds, d)
		if err != nil {
			return nil, err
		}
		var cells []cell
		for _, algo := range algos {
			for _, l := range r.Cfg.Ls {
				for _, t := range tables {
					cells = append(cells, cell{table: t, l: l, algo: algo})
				}
			}
		}
		outs, err := r.runCells(cells, withKL)
		if err != nil {
			return nil, err
		}
		fig := Figure{ID: id + suffix(ds), Title: fmt.Sprintf("%s (%s-%d)", title, ds, d), XLabel: "l", YLabel: ylabel}
		next := 0
		for _, algo := range algos {
			s := Series{Name: algo}
			for _, l := range r.Cfg.Ls {
				stars, kl, secs, _, err := averageOutcome(outs[next : next+len(tables)])
				if err != nil {
					return nil, err
				}
				next += len(tables)
				s.Points = append(s.Points, Point{X: float64(l), Y: pickY(ylabel, stars, kl, secs)})
			}
			fig.Series = append(fig.Series, s)
		}
		figures = append(figures, fig)
	}
	return figures, nil
}

// sweepD produces one figure per dataset with d on the x axis at fixed l.
// Projection families are materialized serially (the Runner cache is not
// synchronized); the algorithm runs across every d then share one pool.
func (r *Runner) sweepD(id, title, ylabel string, l int, algos []string, withKL bool) ([]Figure, error) {
	var figures []Figure
	for _, ds := range []string{"SAL", "OCC"} {
		perD := make([][]*table.Table, len(r.Cfg.Ds))
		for di, d := range r.Cfg.Ds {
			tables, err := r.projections(ds, d)
			if err != nil {
				return nil, err
			}
			perD[di] = tables
		}
		var cells []cell
		for _, tables := range perD {
			for _, algo := range algos {
				for _, t := range tables {
					cells = append(cells, cell{table: t, l: l, algo: algo})
				}
			}
		}
		outs, err := r.runCells(cells, withKL)
		if err != nil {
			return nil, err
		}
		fig := Figure{ID: id + suffix(ds), Title: fmt.Sprintf("%s (%s-d)", title, ds), XLabel: "number d of QI attributes", YLabel: ylabel}
		series := make([]Series, len(algos))
		for i, algo := range algos {
			series[i] = Series{Name: algo}
		}
		next := 0
		for di, d := range r.Cfg.Ds {
			for i := range algos {
				stars, kl, secs, _, err := averageOutcome(outs[next : next+len(perD[di])])
				if err != nil {
					return nil, err
				}
				next += len(perD[di])
				series[i].Points = append(series[i].Points, Point{X: float64(d), Y: pickY(ylabel, stars, kl, secs)})
			}
		}
		fig.Series = series
		figures = append(figures, fig)
	}
	return figures, nil
}

func pickY(ylabel string, stars, kl, secs float64) float64 {
	switch ylabel {
	case "stars":
		return stars
	case "KL-divergence":
		return kl
	default:
		return secs
	}
}

func suffix(ds string) string {
	if ds == "SAL" {
		return "a"
	}
	return "b"
}

// Format renders a figure as an aligned text table, one row per x value and
// one column per series, matching the rows/series the paper plots.
func Format(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", fig.ID, fig.Title)
	fmt.Fprintf(&b, "%-28s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	if len(fig.Series) == 0 {
		return b.String()
	}
	for i := range fig.Series[0].Points {
		fmt.Fprintf(&b, "%-28.6g", fig.Series[0].Points[i].X)
		for _, s := range fig.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%16.6g", s.Points[i].Y)
			} else {
				fmt.Fprintf(&b, "%16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(y axis: %s)\n", fig.YLabel)
	return b.String()
}
