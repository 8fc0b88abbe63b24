// Package experiment is the benchmark harness that regenerates the paper's
// evaluation (Section 6): Figures 2-8, the phase-three frequency study and
// the Table 6 dataset description. Both the bench_test.go benchmarks and the
// cmd/ldivbench tool are thin wrappers around this package.
package experiment

import (
	"fmt"
	"time"

	"ldiv"
	"ldiv/internal/dataset"
	"ldiv/internal/parallel"
	"ldiv/internal/table"
)

// Algorithm display names: the series names of the figures. Each lowercases
// to its canonical name in ldiv.Algorithms, which is how Run dispatches it.
const (
	AlgoHilbert   = "Hilbert"
	AlgoTP        = "TP"
	AlgoTPPlus    = "TP+"
	AlgoTDS       = "TDS"
	AlgoMondrian  = "Mondrian"
	AlgoIncognito = "Incognito"
)

// Config controls the scale of the reproduction. The paper's configuration is
// 600k rows and all projections per d; the defaults here are reduced so that
// the whole evaluation completes in minutes (see EXPERIMENTS.md).
type Config struct {
	// Rows is the cardinality of the generated SAL and OCC base tables.
	Rows int
	// Seed seeds the synthetic data generators.
	Seed int64
	// MaxProjections caps the number of size-d projections averaged per
	// data point (0 = all C(7,d) projections, as in the paper).
	MaxProjections int
	// Ls is the range of the diversity parameter used by the l-sweeps.
	Ls []int
	// Ds is the range of dimensionalities used by the d-sweeps.
	Ds []int
	// SampleSizes is the list of cardinalities for the scalability sweep
	// (Figure 6). Values larger than Rows are clamped.
	SampleSizes []int
	// KLRows optionally reduces the cardinality used by the KL-divergence
	// figures, which are quadratic in the number of groups; 0 means Rows.
	KLRows int
	// CorpusRows is the per-family cardinality of the scenario-corpus sweep
	// (Runner.Corpus); 0 means 6000. It is kept well below Rows because the
	// sweep crosses every dataset family with every generalization algorithm,
	// including the lattice-search baselines.
	CorpusRows int
	// Workers bounds the number of experiment cells (one algorithm run on
	// one projection) executed concurrently. 1 runs everything serially;
	// values below 1 use one worker per CPU. Cells are independent and
	// results are aggregated in a fixed order, so the deterministic figures
	// (stars and KL) are identical for every worker count. The timing
	// figures (4-6) measure per-cell wall clock, which concurrent cells
	// inflate by contending for cores — measure those with Workers = 1.
	Workers int
}

// DefaultConfig is a laptop-scale configuration that preserves every trend.
func DefaultConfig() Config {
	return Config{
		Rows:           60000,
		Seed:           1,
		MaxProjections: 5,
		Ls:             []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		Ds:             []int{1, 2, 3, 4, 5, 6, 7},
		SampleSizes:    []int{10000, 20000, 30000, 40000, 50000, 60000},
		KLRows:         15000,
		Workers:        1,
	}
}

// PaperConfig is the full-scale configuration of the paper (slow).
func PaperConfig() Config {
	return Config{
		Rows:           600000,
		Seed:           1,
		MaxProjections: 0,
		Ls:             []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
		Ds:             []int{1, 2, 3, 4, 5, 6, 7},
		SampleSizes:    []int{100000, 200000, 300000, 400000, 500000, 600000},
		KLRows:         60000,
		Workers:        1,
	}
}

// Point is one (x, y) measurement.
type Point struct {
	X float64
	Y float64
}

// Series is a named curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced plot: an identifier matching the paper, axis
// labels, and one series per algorithm.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Runner caches the generated base tables across figures.
type Runner struct {
	Cfg Config

	sal *table.Table
	occ *table.Table
}

// NewRunner returns a Runner for the configuration.
func NewRunner(cfg Config) *Runner { return &Runner{Cfg: cfg} }

// SAL returns (generating on first use) the synthetic SAL base table.
func (r *Runner) SAL() (*table.Table, error) {
	if r.sal == nil {
		t, err := dataset.Generate("sal", dataset.Config{Rows: r.Cfg.Rows, Seed: r.Cfg.Seed})
		if err != nil {
			return nil, err
		}
		r.sal = t
	}
	return r.sal, nil
}

// OCC returns (generating on first use) the synthetic OCC base table.
func (r *Runner) OCC() (*table.Table, error) {
	if r.occ == nil {
		t, err := dataset.Generate("occ", dataset.Config{Rows: r.Cfg.Rows, Seed: r.Cfg.Seed + 1})
		if err != nil {
			return nil, err
		}
		r.occ = t
	}
	return r.occ, nil
}

func (r *Runner) base(name string) (*table.Table, error) {
	switch name {
	case "SAL":
		return r.SAL()
	case "OCC":
		return r.OCC()
	default:
		return nil, fmt.Errorf("experiment: unknown dataset %q", name)
	}
}

// RunOutcome is the result of one algorithm run on one table.
type RunOutcome struct {
	Algorithm        string
	Stars            int
	SuppressedTuples int
	KL               float64
	Elapsed          time.Duration
	TerminationPhase int // 0 for algorithms without phases
}

// Run executes the named algorithm (a display name such as "TP+", or any
// spelling ldiv.CanonicalAlgorithm accepts) on t through ldiv.AnonymizeWith,
// the dispatch the CLI and the job server share. Elapsed covers the
// algorithm through its published release; the KL field is filled only when
// withKL is true (it is comparatively expensive). For TDS, Mondrian and
// Incognito, Stars counts the cells generalized past a leaf. Unknown names
// are rejected, and so is anatomy, whose two-table release
// ldiv.AnonymizeWith refuses.
func Run(t *table.Table, l int, algo string, withKL bool) (RunOutcome, error) {
	name, ok := ldiv.CanonicalAlgorithm(algo)
	if !ok {
		return RunOutcome{}, fmt.Errorf("experiment: unknown algorithm %q", algo)
	}
	//lint:ignore detrange elapsed wall-clock time is itself the reported figure; it never shapes release bytes
	start := time.Now()
	gen, phase, err := ldiv.AnonymizeWith(t, l, name)
	if err != nil {
		return RunOutcome{}, err
	}
	elapsed := time.Since(start)
	out := RunOutcome{
		Algorithm:        algo,
		Stars:            gen.Stars(),
		SuppressedTuples: gen.SuppressedTuples(),
		Elapsed:          elapsed,
		TerminationPhase: phase,
	}
	if withKL {
		if out.KL, err = ldiv.KLDivergence(gen); err != nil {
			return RunOutcome{}, err
		}
	}
	return out, nil
}

// projections returns the SAL-d (or OCC-d) family for the configured cap.
func (r *Runner) projections(datasetName string, d int) ([]*table.Table, error) {
	base, err := r.base(datasetName)
	if err != nil {
		return nil, err
	}
	return dataset.ProjectionTables(base, d, r.Cfg.MaxProjections)
}

// cell is one independent unit of work of a figure: one algorithm run with
// parameter l on one projection table. Cells carry no shared mutable state,
// so the pool may execute them in any order on any worker.
type cell struct {
	table *table.Table
	l     int
	algo  string
}

// runCells executes the cells on the runner's worker pool and returns the
// outcomes in cell order (parallel.Map guarantees index-ordered results, so
// aggregation downstream is deterministic for every worker count).
func (r *Runner) runCells(cells []cell, withKL bool) ([]RunOutcome, error) {
	return parallel.Map(r.Cfg.Workers, len(cells), func(i int) (RunOutcome, error) {
		return Run(cells[i].table, cells[i].l, cells[i].algo, withKL)
	})
}

// averageOutcome averages stars, KL and time over a run of outcomes and
// counts the runs that terminated in phase three.
func averageOutcome(outs []RunOutcome) (stars, kl, seconds float64, phase3 int, err error) {
	if len(outs) == 0 {
		return 0, 0, 0, 0, fmt.Errorf("experiment: no projection tables")
	}
	for _, out := range outs {
		stars += float64(out.Stars)
		kl += out.KL
		seconds += out.Elapsed.Seconds()
		if out.TerminationPhase == 3 {
			phase3++
		}
	}
	f := float64(len(outs))
	return stars / f, kl / f, seconds / f, phase3, nil
}
