package metrics_test

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"ldiv"
	"ldiv/internal/dataset"
	"ldiv/internal/generalize"
	"ldiv/internal/metrics"
)

// stringKeyedKL is the original KL-divergence implementation, kept as the
// oracle of KLDivergence: it keys the empirical points by a QIKey+SA string
// in first-occurrence order, sums the exact groups per QI signature in a map
// of maps, and scans every general group for every point.
func stringKeyedKL(g *generalize.Generalized) (float64, error) {
	t := g.Source
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	sch := t.Schema()
	type point struct {
		row int
		cnt int
	}
	counts := make(map[string]*point)
	points := make([]*point, 0, n)
	for r := 0; r < n; r++ {
		k := t.QIKey(r) + "|" + fmt.Sprint(t.SAValue(r))
		if p, ok := counts[k]; ok {
			p.cnt++
		} else {
			p := &point{row: r, cnt: 1}
			counts[k] = p
			points = append(points, p)
		}
	}
	type generalGroup struct {
		cells []generalize.Cell
		saCnt map[int]int
		mass  float64
	}
	exactBySig := make(map[string]map[int]int)
	var generals []generalGroup
	for _, rows := range g.Partition.Groups {
		cells := g.Cells[rows[0]]
		allExact := true
		for _, c := range cells {
			if c.Kind != generalize.CellExact {
				allExact = false
			}
		}
		hist := make(map[int]int)
		for _, r := range rows {
			hist[t.SAValue(r)]++
		}
		if allExact {
			sig := ""
			for _, c := range cells {
				sig += fmt.Sprint(c.Value) + ","
			}
			if exactBySig[sig] == nil {
				exactBySig[sig] = make(map[int]int)
			}
			for v, c := range hist {
				exactBySig[sig][v] += c
			}
			continue
		}
		mass := 1.0
		for j, c := range cells {
			mass /= float64(c.Width(sch.QI(j).Cardinality()))
		}
		generals = append(generals, generalGroup{cells: cells, saCnt: hist, mass: mass})
	}
	kl := 0.0
	for _, p := range points {
		f := float64(p.cnt) / float64(n)
		sig := ""
		for j := 0; j < t.Dimensions(); j++ {
			sig += fmt.Sprint(t.QIAt(p.row, j)) + ","
		}
		sa := t.SAValue(p.row)
		fstar := float64(exactBySig[sig][sa]) / float64(n)
		for _, gg := range generals {
			covered := true
			for j, c := range gg.cells {
				if !c.Covers(t.QIAt(p.row, j)) {
					covered = false
				}
			}
			if covered {
				fstar += float64(gg.saCnt[sa]) / float64(n) * gg.mass
			}
		}
		if fstar <= 0 {
			return 0, fmt.Errorf("zero induced mass at row %d", p.row)
		}
		kl += f * math.Log(f/fstar)
	}
	return kl, nil
}

// singleLoopKL is KLDivergence as it was before it summed blocks of groups
// in parallel, kept as the oracle of the blocked sum: one loop adds every
// point's term in GroupByQI order.
func singleLoopKL(g *generalize.Generalized) (float64, error) {
	t := g.Source
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	sch := t.Schema()
	cov := g.Coverage()
	words := cov.Words()
	sadom := t.SADomainSize()
	counter := t.SAGroupCounter()

	holds := make([]uint64, sadom*words)
	for k, gi := range cov.General {
		_, vals := counter.Count(g.Partition.Groups[gi])
		for _, v := range vals {
			holds[int(v)*words+k/64] |= uint64(1) << (k % 64)
		}
	}
	first := make([]int, len(holds))
	next := make([]int, sadom)
	total := 0
	for i, word := range holds {
		if i%words == 0 {
			next[i/words] = total
		}
		first[i] = total
		total += bits.OnesCount64(word)
	}
	weight := make([]float64, total)
	for _, gi := range cov.General {
		rows := g.Partition.Groups[gi]
		mass := 1.0
		for j, c := range g.Cells[rows[0]] {
			mass /= float64(c.Width(sch.QI(j).Cardinality()))
		}
		counts, vals := counter.Count(rows)
		for _, v := range vals {
			weight[next[v]] = float64(counts[v]) / float64(n) * mass
			next[v]++
		}
	}

	sa := t.SAView()
	exactCnt := make([]int32, sadom)
	qi := make([]int, t.Dimensions())
	mask := make([]uint64, words)
	kl := 0.0
	for _, rows := range t.GroupByQI() {
		for _, r := range rows {
			if cov.ExactRow[r] {
				exactCnt[sa[r]]++
			}
		}
		for j := range qi {
			qi[j] = t.QIAt(rows[0], j)
		}
		cov.Covering(mask, qi)
		counts, vals := counter.Count(rows)
		for _, v := range vals {
			f := float64(counts[v]) / float64(n)
			fstar := float64(exactCnt[v]) / float64(n)
			exactCnt[v] = 0
			base := int(v) * words
			for w, m := range mask {
				held := holds[base+w]
				for m &= held; m != 0; m &= m - 1 {
					below := uint64(1)<<bits.TrailingZeros64(m) - 1
					fstar += weight[first[base+w]+bits.OnesCount64(held&below)]
				}
			}
			if fstar <= 0 {
				return 0, fmt.Errorf("zero induced mass in the group of row %d", rows[0])
			}
			kl += f * math.Log(f/fstar)
		}
	}
	return kl, nil
}

type namedRelease struct {
	name string
	gen  *generalize.Generalized
}

// corpusReleases returns the releases of every dataset family (300 rows)
// under every generalization algorithm with a non-trivial KL shape, at each
// l in {2,3,4} the family admits.
func corpusReleases(t *testing.T) []namedRelease {
	t.Helper()
	var out []namedRelease
	for _, family := range dataset.Families() {
		tbl, err := dataset.Generate(family, dataset.Config{Rows: 300, Seed: 17})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		for _, l := range []int{2, 3, 4} {
			if l > ldiv.MaxEligibleL(tbl) {
				continue
			}
			for _, algo := range []string{"tp+", "hilbert", "tds", "mondrian", "incognito"} {
				g, _, err := ldiv.AnonymizeWith(tbl, l, algo)
				if err != nil {
					t.Fatalf("%s l=%d %s: %v", family, l, algo, err)
				}
				out = append(out, namedRelease{fmt.Sprintf("%s l=%d %s", family, l, algo), g})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("the corpus holds no releases")
	}
	return out
}

// klFigureReleases returns the tp+, hilbert and mondrian releases at l=6 of
// the KL figures' table, SAL-4 at 15,000 rows, which BenchmarkKLDivergence
// times.
func klFigureReleases(t *testing.T) []namedRelease {
	t.Helper()
	sal, err := dataset.Generate("sal", dataset.Config{Rows: 15000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sal4, err := sal.ProjectNames([]string{"Age", "Gender", "Education", "Work Class"})
	if err != nil {
		t.Fatal(err)
	}
	var out []namedRelease
	for _, algo := range []string{"tp+", "hilbert", "mondrian"} {
		g, _, err := ldiv.AnonymizeWith(sal4, 6, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		out = append(out, namedRelease{"SAL-4 15k l=6 " + algo, g})
	}
	return out
}

// TestKLMatchesStringKeyedOracle sweeps every dataset family and every
// generalization algorithm with a non-trivial KL shape over l in {2,3,4}: the
// GroupByQI-driven KLDivergence must stay within 1e-12 relative of the
// string-keyed oracle (only the float summation order differs).
func TestKLMatchesStringKeyedOracle(t *testing.T) {
	releases := corpusReleases(t)
	for _, r := range releases {
		got, err := metrics.KLDivergence(r.gen)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want, err := stringKeyedKL(r.gen)
		if err != nil {
			t.Fatalf("%s: oracle: %v", r.name, err)
		}
		if diff := math.Abs(got - want); diff > 1e-12*math.Abs(want) {
			t.Errorf("%s: KL = %.17g, oracle %.17g (relative %.3g)", r.name, got, want, diff/math.Abs(want))
		}
	}
	t.Logf("compared %d releases", len(releases))
}

// TestKLBlocksMatchSingleLoop sums KL in small blocks of groups at 1, 2 and 4
// workers over the oracle corpus and the KL figures' releases. Each block
// size must give the same bits at every worker count and stay within 1e-12
// relative of the single-loop oracle; with fewer groups than one default
// block, KLDivergence must give the single loop's bits.
func TestKLBlocksMatchSingleLoop(t *testing.T) {
	worst := 0.0
	for _, r := range append(corpusReleases(t), klFigureReleases(t)...) {
		want, err := singleLoopKL(r.gen)
		if err != nil {
			t.Fatalf("%s: single loop: %v", r.name, err)
		}
		if groups := len(r.gen.Source.GroupByQI()); groups <= 4096 {
			if got, err := metrics.KLDivergence(r.gen); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %d groups: KL = %.17g, %v; single loop %.17g", r.name, groups, got, err, want)
			}
		}
		for _, block := range []int{1, 7, 256} {
			var first float64
			for _, workers := range []int{1, 2, 4} {
				got, err := metrics.KLDivergenceBlocks(r.gen, workers, block)
				if err != nil {
					t.Fatalf("%s: block %d, %d workers: %v", r.name, block, workers, err)
				}
				if workers == 1 {
					first = got
				} else if math.Float64bits(got) != math.Float64bits(first) {
					t.Errorf("%s: block %d: %d workers give %.17g, 1 worker %.17g", r.name, block, workers, got, first)
				}
			}
			if diff := math.Abs(first - want); diff > 1e-12*math.Abs(want) {
				t.Errorf("%s: block %d: KL = %.17g, single loop %.17g", r.name, block, first, want)
			} else if want != 0 {
				worst = max(worst, diff/math.Abs(want))
			}
		}
	}
	t.Logf("largest relative difference from the single loop: %.3g", worst)
}
