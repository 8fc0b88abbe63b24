package ldiv_test

// One benchmark per table/figure of the paper's evaluation (Section 6), plus
// micro-benchmarks of the core building blocks. The benchmarks run reduced
// workloads so `go test -bench=.` finishes in minutes; the full series the
// paper plots are regenerated by `go run ./cmd/ldivbench` (see EXPERIMENTS.md
// for recorded outputs and the paper-vs-measured comparison).

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"ldiv"
	"ldiv/internal/attack"
	"ldiv/internal/core"
	"ldiv/internal/dataset"
	"ldiv/internal/experiment"
	"ldiv/internal/hilbert"
	"ldiv/internal/metrics"
)

// benchConfig is the reduced configuration shared by the figure benchmarks.
func benchConfig() experiment.Config {
	return experiment.Config{
		Rows:           8000,
		Seed:           1,
		MaxProjections: 2,
		Ls:             []int{2, 6, 10},
		Ds:             []int{1, 2, 3, 4},
		SampleSizes:    []int{2000, 4000, 8000},
		KLRows:         3000,
	}
}

var (
	benchOnce     sync.Once
	benchRunner   *experiment.Runner
	benchSAL4     *ldiv.Table
	benchSetupErr error
)

// skipIfShort skips the figure-matrix benchmarks under -short: each one
// regenerates a whole experiment grid (minutes of work multiplied across the
// file), while the micro-benchmarks further down still cover every building
// block. `make bench-smoke BENCHFLAGS=-short` uses this for a quick pass.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("figure-matrix benchmark skipped in -short mode")
	}
}

func setupBench(b *testing.B) (*experiment.Runner, *ldiv.Table) {
	b.Helper()
	benchOnce.Do(func() {
		benchRunner = experiment.NewRunner(benchConfig())
		sal, err := benchRunner.SAL()
		if err != nil {
			benchSetupErr = err
			return
		}
		proj, err := sal.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
		if err != nil {
			benchSetupErr = err
			return
		}
		benchSAL4 = proj
	})
	if benchSetupErr != nil {
		b.Fatalf("bench setup: %v", benchSetupErr)
	}
	return benchRunner, benchSAL4
}

// setupBenchParallel returns a runner with one worker per CPU over the same
// reduced configuration, for the parallel figure benchmark variants. The
// runner is separate from the serial one so the two never share table caches
// mid-benchmark.
func setupBenchParallel(b *testing.B) *experiment.Runner {
	b.Helper()
	benchParOnce.Do(func() {
		cfg := benchConfig()
		cfg.Workers = 0 // one worker per CPU
		benchParRunner = experiment.NewRunner(cfg)
	})
	return benchParRunner
}

var (
	benchParOnce   sync.Once
	benchParRunner *experiment.Runner
)

// BenchmarkFigure2_StarsVsL regenerates Figure 2 (average stars vs l) on the
// reduced workload. The reported custom metrics expose the series endpoints
// so regressions in solution quality are visible alongside running time.
func BenchmarkFigure2_StarsVsL(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "stars")
	}
}

// BenchmarkFigure3_StarsVsD regenerates Figure 3 (average stars vs d, l=6).
func BenchmarkFigure3_StarsVsD(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "stars")
	}
}

// BenchmarkFigure4_TimeVsL regenerates Figure 4 (computation time vs l).
func BenchmarkFigure4_TimeVsL(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5_TimeVsD regenerates Figure 5 (computation time vs d, l=4).
func BenchmarkFigure5_TimeVsD(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_TimeVsN regenerates Figure 6 (computation time vs n, l=6).
func BenchmarkFigure6_TimeVsN(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_KLVsL regenerates Figure 7 (KL-divergence vs l, TDS vs TP+).
func BenchmarkFigure7_KLVsL(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "KL")
	}
}

// BenchmarkFigure8_KLVsD regenerates Figure 8 (KL-divergence vs d, l=6).
func BenchmarkFigure8_KLVsD(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "KL")
	}
}

// BenchmarkPhase3Frequency regenerates the Section 6.1 phase-three frequency
// study and reports how many runs reached phase three (expected: 0).
func BenchmarkPhase3Frequency(b *testing.B) {
	skipIfShort(b)
	r, _ := setupBench(b)
	b.ResetTimer()
	var lastPhase3 int
	for i := 0; i < b.N; i++ {
		rep, err := r.Phase3Frequency()
		if err != nil {
			b.Fatal(err)
		}
		lastPhase3 = rep.Phase3Runs
	}
	b.ReportMetric(float64(lastPhase3), "phase3-runs")
}

// BenchmarkTable6_DatasetGeneration covers Table 6: generating the SAL and
// OCC tables with the paper's attribute domains.
func BenchmarkTable6_DatasetGeneration(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		if _, err := dataset.Generate("sal", dataset.Config{Rows: 10000, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := dataset.Generate("occ", dataset.Config{Rows: 10000, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPhases quantifies the contribution of each TP phase (how
// many tuples each phase removes) — the ablation called out in DESIGN.md.
func BenchmarkAblationPhases(b *testing.B) {
	skipIfShort(b)
	_, sal4 := setupBench(b)
	b.ResetTimer()
	var phase1, phase2, phase3 int
	for i := 0; i < b.N; i++ {
		res, err := ldiv.TP(sal4, 6)
		if err != nil {
			b.Fatal(err)
		}
		phase1 = res.RemovedByPhase[1]
		phase2 = res.RemovedByPhase[2]
		phase3 = res.RemovedByPhase[3]
	}
	b.ReportMetric(float64(phase1), "phase1-removed")
	b.ReportMetric(float64(phase2), "phase2-removed")
	b.ReportMetric(float64(phase3), "phase3-removed")
}

// BenchmarkAblationSkipPhaseTwo runs the ablated TP variant (phase one, then
// straight to phase three) so its cost and residue size can be compared with
// the full three-phase configuration benchmarked above.
func BenchmarkAblationSkipPhaseTwo(b *testing.B) {
	skipIfShort(b)
	_, sal4 := setupBench(b)
	b.ResetTimer()
	var suppressed int
	for i := 0; i < b.N; i++ {
		res, err := (&core.Anonymizer{L: 6, SkipPhaseTwo: true}).Anonymize(sal4)
		if err != nil {
			b.Fatal(err)
		}
		suppressed = res.SuppressedTuples()
	}
	b.ReportMetric(float64(suppressed), "suppressed-tuples")
}

// --- Parallel figure variants -----------------------------------------------
//
// The same figures regenerated with one worker per CPU (Config.Workers = 0).
// The deterministic outputs (stars, KL) are identical to the serial run;
// comparing these against the serial benchmarks above shows the wall-clock
// win of the worker pool. The y values of the timing figures (4-6) are
// inflated under concurrency (cells contend for cores), so those figures
// should be *reported* from serial runs even though regenerating them in
// parallel is a fair wall-clock benchmark.

func BenchmarkFigure2_StarsVsL_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "stars")
	}
}

func BenchmarkFigure3_StarsVsD_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "stars")
	}
}

func BenchmarkFigure4_TimeVsL_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5_TimeVsD_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6_TimeVsN_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7_KLVsL_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "KL")
	}
}

func BenchmarkFigure8_KLVsD_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		reportSeriesEndpoints(b, figs, "KL")
	}
}

func BenchmarkPhase3Frequency_Parallel(b *testing.B) {
	skipIfShort(b)
	r := setupBenchParallel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Phase3Frequency(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the building blocks --------------------------------

// stringKeyGroupByQI is the pre-interning GroupByQI: one formatted string key
// per row. It is kept only as the allocation baseline for BenchmarkGroupByQI.
func stringKeyGroupByQI(t *ldiv.Table) [][]int {
	byKey := make(map[string][]int)
	for i := 0; i < t.Len(); i++ {
		k := t.QIKey(i)
		byKey[k] = append(byKey[k], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

// BenchmarkTableOps measures the data-model primitives the columnar arena
// rewrite targets: row ingestion (one arena growth schedule instead of one
// heap slice per row) and the sample/subset/project operations (zero-copy
// views instead of cell-by-cell deep copies). EXPERIMENTS.md records the
// before/after numbers; `make bench-table` reruns the table-core suite.
func BenchmarkTableOps(b *testing.B) {
	_, sal4 := setupBench(b)
	n := sal4.Len()
	d := sal4.Dimensions()
	b.Run("append-8k", func(b *testing.B) {
		row := make([]int, d)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb := ldiv.NewTableBuilder(sal4.Schema())
			for r := 0; r < n; r++ {
				for j := 0; j < d; j++ {
					row[j] = sal4.QIAt(r, j)
				}
				tb.MustAppendRow(row, sal4.SAValue(r))
			}
			t := tb.Build()
			if t.Len() != n {
				b.Fatal("short table")
			}
		}
	})
	b.Run("sample-half", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			if s := sal4.Sample(n/2, rng); s.Len() != n/2 {
				b.Fatal("short sample")
			}
		}
	})
	b.Run("subset-half", func(b *testing.B) {
		rows := make([]int, n/2)
		for i := range rows {
			rows[i] = 2 * i
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s := sal4.Subset(rows); s.Len() != n/2 {
				b.Fatal("short subset")
			}
		}
	})
	b.Run("project-2of4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := sal4.Project([]int{0, 2})
			if err != nil {
				b.Fatal(err)
			}
			if p.Len() != n {
				b.Fatal("short projection")
			}
		}
	})
}

// freshTable returns an ungrouped copy of t, made with the timer stopped.
// GroupByQI is memoized on the table, so a benchmark that grouped (or
// anonymized) the same table every iteration would time a memo hit from the
// second iteration on.
func freshTable(b *testing.B, t *ldiv.Table) *ldiv.Table {
	b.StopTimer()
	c := t.Clone()
	b.StartTimer()
	return c
}

// BenchmarkGroupByQI compares the interned-key grouping that TP runs on every
// anonymization against the string-key baseline it replaced (see
// EXPERIMENTS.md for recorded numbers). Each interned iteration groups a
// fresh copy of the table, so it times the grouping and not the memo.
func BenchmarkGroupByQI(b *testing.B) {
	_, sal4 := setupBench(b)
	b.Run("interned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := freshTable(b, sal4).GroupByQI(); len(g) == 0 {
				b.Fatal("empty grouping")
			}
		}
	})
	b.Run("stringkey-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g := stringKeyGroupByQI(sal4); len(g) == 0 {
				b.Fatal("empty grouping")
			}
		}
	})
}

// BenchmarkAnonymize is the TP-core suite of the flat-array rewrite: small
// and large l crossed with uniform and Zipf-skewed sensitive distributions
// over a 10k-row synthetic table (see dataset.BenchTable). Allocation
// counts are reported because the flat core's headline win is replacing the
// map-based inverted lists with dense arrays; EXPERIMENTS.md records the
// before/after numbers against the retained map-based reference. Each
// iteration anonymizes a fresh copy of the table, so the grouping TP starts
// with is timed too.
func BenchmarkAnonymize(b *testing.B) {
	for _, l := range []int{2, 6, 10} {
		for _, skew := range []string{"uniform", "zipf"} {
			b.Run(fmt.Sprintf("l=%d/%s", l, skew), func(b *testing.B) {
				tbl := dataset.BenchTable(10000, 3, 8, 48, skew == "zipf", 1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ldiv.TP(freshTable(b, tbl), l); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPhase3Heavy anonymizes a table engineered to enter phase three
// (see dataset.Phase3HeavyTable) with phase two disabled, so the cost of
// the greedy-cover rounds — the code the inverted group index accelerates —
// is visible in isolation rather than amortized away by the phase-1/2 exits
// of census-like data. Each iteration anonymizes a fresh copy of the table.
func BenchmarkPhase3Heavy(b *testing.B) {
	const l = 6
	tbl := dataset.Phase3HeavyTable(l, 40, 60)
	anon := &core.Anonymizer{L: l, SkipPhaseTwo: true}
	res, err := anon.Anonymize(tbl)
	if err != nil {
		b.Fatal(err)
	}
	if res.TerminationPhase != 3 {
		b.Fatalf("workload terminated in phase %d, want 3", res.TerminationPhase)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anon.Anonymize(freshTable(b, tbl)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Phase3Rounds), "phase3-rounds")
}

// BenchmarkTPOnSAL4 and BenchmarkTPPlusOnSAL4 anonymize a fresh copy of
// SAL-4 each iteration, grouping included.
func BenchmarkTPOnSAL4(b *testing.B) {
	_, sal4 := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldiv.TP(freshTable(b, sal4), 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPPlusOnSAL4(b *testing.B) {
	_, sal4 := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldiv.TPPlus(freshTable(b, sal4), 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertOnSAL4(b *testing.B) {
	_, sal4 := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldiv.Hilbert(sal4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTDSOnSAL4(b *testing.B) {
	_, sal4 := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldiv.TDS(sal4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMondrianOnSAL4(b *testing.B) {
	_, sal4 := setupBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ldiv.Mondrian(sal4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHilbertEncode(b *testing.B) {
	coords := []uint32{13, 1, 9, 5, 40, 2, 7}
	for i := 0; i < b.N; i++ {
		if _, err := hilbert.Encode(coords, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// klReleases returns, built once, the tp+, hilbert and mondrian releases at
// l=6 of the KL figures' table: SAL-4 at the -klrows default of 15,000 rows.
func klReleases(b *testing.B) []namedRelease {
	b.Helper()
	klOnce.Do(func() {
		sal, err := dataset.Generate("sal", dataset.Config{Rows: 15000, Seed: 1})
		if err != nil {
			klErr = err
			return
		}
		sal4, err := sal.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
		if err != nil {
			klErr = err
			return
		}
		for _, algo := range []string{"tp+", "hilbert", "mondrian"} {
			gen, _, err := ldiv.AnonymizeWith(sal4, 6, algo)
			if err != nil {
				klErr = err
				return
			}
			klGens = append(klGens, namedRelease{algo, gen})
		}
	})
	if klErr != nil {
		b.Fatalf("KL release setup: %v", klErr)
	}
	return klGens
}

type namedRelease struct {
	algo string
	gen  *ldiv.Generalized
}

var (
	klOnce sync.Once
	klGens []namedRelease
	klErr  error
)

// BenchmarkKLDivergence measures Equation 2's KL-divergence on each release
// of klReleases, and on the publish-wide tp release ("wide"), whose 72k
// GroupByQI groups KL sums in blocks on one goroutine per CPU.
func BenchmarkKLDivergence(b *testing.B) {
	_, wide := wideCSV(b)
	for _, r := range append(slices.Clip(klReleases(b)), namedRelease{"wide", wide}) {
		b.Run(r.algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := metrics.KLDivergence(r.gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAudit measures attack.Audit, the linking attack, on each release
// of klReleases. It does not time the release auditor that verifies
// l-diversity from published bytes; BenchmarkVerifyGeneralized does.
func BenchmarkAudit(b *testing.B) {
	for _, r := range klReleases(b) {
		b.Run(r.algo, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := attack.Audit(r.gen); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// wideCSV returns, built once, the publish-wide input: 100k generated SAL
// rows with all seven QI columns and Income, as CSV, plus its tp release at
// l=4.
func wideCSV(b *testing.B) ([]byte, *ldiv.Generalized) {
	b.Helper()
	wideOnce.Do(func() {
		sal, err := dataset.Generate("sal", dataset.Config{Rows: 100000, Seed: 1})
		if err != nil {
			wideErr = err
			return
		}
		var buf bytes.Buffer
		if wideErr = ldiv.WriteCSV(&buf, sal); wideErr != nil {
			return
		}
		wideBytes = buf.Bytes()
		wideGen, _, wideErr = ldiv.AnonymizeWith(sal, 4, "tp")
	})
	if wideErr != nil {
		b.Fatalf("publish-wide setup: %v", wideErr)
	}
	return wideBytes, wideGen
}

var (
	wideOnce  sync.Once
	wideBytes []byte
	wideGen   *ldiv.Generalized
	wideErr   error
)

// BenchmarkReadCSV measures CSV ingest of the publish-wide input: 100k rows
// of 8 columns, each field interned into its attribute's dictionary. "sized"
// reads a *bytes.Reader, whose length sizes the table once, as ldivd and
// perfbench do; "stream" reads through a reader that hides its length, so
// the table grows by doubling.
func BenchmarkReadCSV(b *testing.B) {
	in, _ := wideCSV(b)
	for _, bc := range []struct {
		name   string
		reader func() io.Reader
	}{
		{"sized", func() io.Reader { return bytes.NewReader(in) }},
		{"stream", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(in)} }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ldiv.ReadCSV(bc.reader(), dataset.QINames, "Income"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadCSVHighCardinality measures CSV ingest of the hostile
// high-cardinality shape: 50k rows whose two QI columns hold ~39k distinct
// labels each, 8 to 16 bytes long, so nearly every field is a label longer
// than a packed tag and most are new to the dictionary, which keeps growing.
func BenchmarkReadCSVHighCardinality(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var buf bytes.Buffer
	buf.WriteString("A,B,S\n")
	label := func() string {
		v := rng.Intn(100000)
		return fmt.Sprintf("%0*d", 8+v%9, v)
	}
	for i := 0; i < 50000; i++ {
		fmt.Fprintf(&buf, "%s,%s,s%d\n", label(), label(), rng.Intn(10))
	}
	in := buf.Bytes()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ldiv.ReadCSV(bytes.NewReader(in), []string{"A", "B"}, "S"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPWide measures the TP core on the publish-wide shape (100k SAL
// rows over all seven QI attributes, read from CSV, l=4): the stage perfbench
// traces as core.tp_ms. Each iteration starts from a fresh copy of the table
// and groups it with the timer stopped, as the pipeline does before TP.
func BenchmarkTPWide(b *testing.B) {
	in, _ := wideCSV(b)
	src, err := ldiv.ReadCSV(bytes.NewReader(in), dataset.QINames, "Income")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := src.Clone()
		groups := t.GroupByQI()
		b.StartTimer()
		if _, err := (&core.Anonymizer{L: 4}).AnonymizeGroups(t, groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteGeneralizedCSV measures rendering the publish-wide tp
// release (100k rows, 7 QI columns, l=4) as CSV. "reuse" renders into one
// buffer reset each iteration; "fresh" renders into a new bytes.Buffer each
// iteration, as ldivd and perfbench do, so its allocation shows the
// buffer's growth, or the reservation that replaces it.
func BenchmarkWriteGeneralizedCSV(b *testing.B) {
	_, gen := wideCSV(b)
	b.Run("reuse", func(b *testing.B) {
		var out bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			out.Reset()
			if err := ldiv.WriteGeneralizedCSV(&out, gen); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(out.Len()))
	})
	b.Run("fresh", func(b *testing.B) {
		var size int
		b.ReportAllocs()
		for b.Loop() {
			var out bytes.Buffer
			if err := ldiv.WriteGeneralizedCSV(&out, gen); err != nil {
				b.Fatal(err)
			}
			size = out.Len()
		}
		b.SetBytes(int64(size))
	})
}

// BenchmarkVerifyGeneralized measures the release auditor on the
// publish-wide input (100k rows, 7 QI columns, l=4): "clean" audits its tp
// release as published; "hostile" audits that release with every "*"
// replaced by "?", so every suppressed cell is an unknown-value violation and
// the report is truncated at the default cap; "sets" audits its mondrian
// release, whose set cells are quoted fields holding commas, so most rows
// take the auditor's quoted-record path.
func BenchmarkVerifyGeneralized(b *testing.B) {
	_, gen := wideCSV(b)
	render := func(g *ldiv.Generalized) []byte {
		var release bytes.Buffer
		if err := ldiv.WriteGeneralizedCSV(&release, g); err != nil {
			b.Fatal(err)
		}
		return release.Bytes()
	}
	clean := render(gen)
	for _, bc := range []struct {
		name    string
		release func() []byte
		ok      bool
	}{
		{"clean", func() []byte { return clean }, true},
		{"hostile", func() []byte { return bytes.ReplaceAll(clean, []byte("*"), []byte("?")) }, false},
		{"sets", func() []byte {
			sets, _, err := ldiv.AnonymizeWith(gen.Source, 4, "mondrian")
			if err != nil {
				b.Fatal(err)
			}
			return render(sets)
		}, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			release := bc.release()
			b.SetBytes(int64(len(release)))
			b.ReportAllocs()
			for b.Loop() {
				rep, err := ldiv.VerifyRelease(gen.Source, bytes.NewReader(release), ldiv.VerifyOptions{L: 4})
				if err != nil {
					b.Fatal(err)
				}
				if rep.OK != bc.ok {
					b.Fatalf("verdict ok=%v, want %v (%d violations)", rep.OK, bc.ok, rep.ViolationCount)
				}
			}
		})
	}
}

// reportSeriesEndpoints surfaces the final point of each series as a custom
// benchmark metric (e.g. "TP+-stars"), keeping quality visible in -bench runs.
func reportSeriesEndpoints(b *testing.B, figs []experiment.Figure, unit string) {
	if len(figs) == 0 {
		return
	}
	for _, s := range figs[0].Series {
		if len(s.Points) == 0 {
			continue
		}
		b.ReportMetric(s.Points[len(s.Points)-1].Y, s.Name+"-"+unit)
	}
}
