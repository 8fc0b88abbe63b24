package metrics_test

import (
	"fmt"
	"math"
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

// TestKLMatchesStringKeyedOracle sweeps every dataset family and every
// generalization algorithm with a non-trivial KL shape over l in {2,3,4}: the
// GroupByQI-driven KLDivergence must stay within 1e-12 relative of the
// string-keyed oracle (only the float summation order differs).
func TestKLMatchesStringKeyedOracle(t *testing.T) {
	checked := 0
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
				got, err := metrics.KLDivergence(g)
				if err != nil {
					t.Fatalf("%s l=%d %s: %v", family, l, algo, err)
				}
				want, err := stringKeyedKL(g)
				if err != nil {
					t.Fatalf("%s l=%d %s: oracle: %v", family, l, algo, err)
				}
				if diff := math.Abs(got - want); diff > 1e-12*math.Abs(want) {
					t.Errorf("%s l=%d %s: KL = %.17g, oracle %.17g (relative %.3g)", family, l, algo, got, want, diff/math.Abs(want))
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("the sweep compared no releases")
	}
	t.Logf("compared %d releases", checked)
}
