package ldiv_test

import (
	"fmt"
	"math"
	"testing"

	"ldiv"
	"ldiv/internal/attack"
	"ldiv/internal/dataset"
	"ldiv/internal/generalize"
	"ldiv/internal/metrics"
	"ldiv/internal/table"
)

// groupScanKL is the KL-divergence as computed before the coverage index, kept
// as the bit-exact oracle of metrics.KLDivergence: exact groups (every cell exact) are
// read off a row mask, and each point scans, in partition order, every general
// group holding its SA value and tests its cells with Cell.Covers.
func groupScanKL(g *generalize.Generalized) (float64, error) {
	t := g.Source
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	sch := t.Schema()
	exact := make([]bool, n)
	var general []int
	for gi, rows := range g.Partition.Groups {
		allExact := true
		for _, c := range g.Cells[rows[0]] {
			allExact = allExact && c.Kind == generalize.CellExact
		}
		if !allExact {
			general = append(general, gi)
			continue
		}
		for _, r := range rows {
			exact[r] = true
		}
	}

	type weighted struct {
		cells  []generalize.Cell
		weight float64
	}
	bySA := make([][]weighted, t.SADomainSize())
	counter := t.SAGroupCounter()
	for _, gi := range general {
		rows := g.Partition.Groups[gi]
		cells := g.Cells[rows[0]]
		mass := 1.0
		for j, c := range cells {
			mass /= float64(c.Width(sch.QI(j).Cardinality()))
		}
		counts, vals := counter.Count(rows)
		for _, v := range vals {
			bySA[v] = append(bySA[v], weighted{cells: cells, weight: float64(counts[v]) / float64(n) * mass})
		}
	}

	sa := t.SAView()
	exactCnt := make([]int32, t.SADomainSize())
	qi := make([]int, t.Dimensions())
	kl := 0.0
	for _, rows := range t.GroupByQI() {
		for _, r := range rows {
			if exact[r] {
				exactCnt[sa[r]]++
			}
		}
		for j := range qi {
			qi[j] = t.QIAt(rows[0], j)
		}
		counts, vals := counter.Count(rows)
		for _, v := range vals {
			f := float64(counts[v]) / float64(n)
			fstar := float64(exactCnt[v]) / float64(n)
			exactCnt[v] = 0
		scan:
			for _, w := range bySA[v] {
				for j, c := range w.cells {
					if !c.Covers(qi[j]) {
						continue scan
					}
				}
				fstar += w.weight
			}
			if fstar <= 0 {
				return 0, fmt.Errorf("zero induced mass at row %d", rows[0])
			}
			kl += f * math.Log(f/fstar)
		}
	}
	return kl, nil
}

// groupScanAudit is the linking attack as computed before the coverage index,
// kept as the oracle of attack.Audit: exact groups (every cell exact) are read off a
// row mask, and each QI profile tests every general group, in partition
// order, with Cell.Covers.
func groupScanAudit(g *generalize.Generalized) (*attack.Report, error) {
	t := g.Source
	n := t.Len()
	rep := &attack.Report{Confidences: make([]float64, n)}
	if n == 0 {
		return rep, nil
	}
	exact := make([]bool, n)
	var general []int
	for gi, rows := range g.Partition.Groups {
		allExact := true
		for _, c := range g.Cells[rows[0]] {
			allExact = allExact && c.Kind == generalize.CellExact
		}
		if !allExact {
			general = append(general, gi)
			continue
		}
		for _, r := range rows {
			exact[r] = true
		}
	}

	type saCount struct{ v, c int32 }
	type group struct {
		cells []generalize.Cell
		size  int
		hist  []saCount
	}
	generals := make([]group, len(general))
	counter := t.SAGroupCounter()
	for k, gi := range general {
		rows := g.Partition.Groups[gi]
		counts, vals := counter.Count(rows)
		hist := make([]saCount, len(vals))
		for i, v := range vals {
			hist[i] = saCount{v: v, c: counts[v]}
		}
		generals[k] = group{cells: g.Cells[rows[0]], size: len(rows), hist: hist}
	}

	sa := t.SAView()
	matchHist := make([]int, t.SADomainSize())
	qi := make([]int, t.Dimensions())
	total := 0.0
	for _, rows := range t.GroupByQI() {
		for j := range qi {
			qi[j] = t.QIAt(rows[0], j)
		}
		clear(matchHist)
		matchSize := 0
		for _, r := range rows {
			if exact[r] {
				matchHist[sa[r]]++
				matchSize++
			}
		}
	scan:
		for _, gr := range generals {
			for j, c := range gr.cells {
				if !c.Covers(qi[j]) {
					continue scan
				}
			}
			matchSize += gr.size
			for _, h := range gr.hist {
				matchHist[h.v] += int(h.c)
			}
		}
		if matchSize == 0 {
			return nil, fmt.Errorf("row %d is not covered", rows[0])
		}
		for _, i := range rows {
			conf := float64(matchHist[sa[i]]) / float64(matchSize)
			rep.Confidences[i] = conf
			total += conf
			if conf >= 1-1e-12 {
				rep.Disclosed++
			}
			if conf > rep.MaxConfidence {
				rep.MaxConfidence = conf
			}
		}
	}
	rep.MeanConfidence = total / float64(n)
	return rep, nil
}

// checkAgainstGroupScan asserts that the KL-divergence equals the group-scan
// oracle bit for bit, and that the linking-attack report equals the oracle's
// field by field: every confidence, the mean and the maximum bit for bit.
func checkAgainstGroupScan(t *testing.T, name string, g *generalize.Generalized) {
	t.Helper()
	kl, err := metrics.KLDivergence(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantKL, err := groupScanKL(g)
	if err != nil {
		t.Fatalf("%s: KL oracle: %v", name, err)
	}
	if math.Float64bits(kl) != math.Float64bits(wantKL) {
		t.Errorf("%s: KL = %.17g, group-scan oracle %.17g", name, kl, wantKL)
	}
	got, err := attack.Audit(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := groupScanAudit(g)
	if err != nil {
		t.Fatalf("%s: audit oracle: %v", name, err)
	}
	if len(got.Confidences) != len(want.Confidences) {
		t.Fatalf("%s: %d confidences, oracle %d", name, len(got.Confidences), len(want.Confidences))
	}
	for i := range want.Confidences {
		if math.Float64bits(got.Confidences[i]) != math.Float64bits(want.Confidences[i]) {
			t.Fatalf("%s: row %d confidence %.17g, oracle %.17g", name, i, got.Confidences[i], want.Confidences[i])
		}
	}
	if math.Float64bits(got.MeanConfidence) != math.Float64bits(want.MeanConfidence) ||
		math.Float64bits(got.MaxConfidence) != math.Float64bits(want.MaxConfidence) ||
		got.Disclosed != want.Disclosed {
		t.Errorf("%s: report (mean %.17g, max %.17g, disclosed %d), oracle (mean %.17g, max %.17g, disclosed %d)",
			name, got.MeanConfidence, got.MaxConfidence, got.Disclosed, want.MeanConfidence, want.MaxConfidence, want.Disclosed)
	}
}

// TestCoverageMatchesGroupScanOracles sweeps every dataset family × every
// generalizing algorithm × l in {2,3,4,6} at 300 and 3,000 rows: KL and the
// linking attack, which find covering groups through the coverage index, must
// equal their group-scan oracles, since both add the covering general groups
// in partition order. Under the race detector, where Incognito on the 7-QI
// census tables at 3,000 rows takes minutes, the sweep stops at 300 rows.
func TestCoverageMatchesGroupScanOracles(t *testing.T) {
	sizes := []int{300, 3000}
	if raceDetector {
		sizes = sizes[:1]
	}
	checked := 0
	for _, rows := range sizes {
		for _, family := range dataset.Families() {
			tbl, err := dataset.Generate(family, dataset.Config{Rows: rows, Seed: 17})
			if err != nil {
				t.Fatalf("%s: %v", family, err)
			}
			for _, l := range []int{2, 3, 4, 6} {
				if l > ldiv.MaxEligibleL(tbl) {
					continue
				}
				for _, algo := range []string{"tp", "tp+", "hilbert", "tds", "mondrian", "incognito"} {
					name := fmt.Sprintf("%s/%d rows/l=%d/%s", family, rows, l, algo)
					g, _, err := ldiv.AnonymizeWith(tbl, l, algo)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkAgainstGroupScan(t, name, g)
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("the sweep compared no releases")
	}
	t.Logf("compared %d releases", checked)
}

// TestCoverageBitsetWordBoundary checks KL and the linking attack on releases
// with 0, 64 and 65 general groups, so the coverage masks are empty, exactly
// one word, and one word plus one bit. Each general group pairs the two B
// values of one A value (B is starred), and the last three A values keep
// their rows as exact singleton groups.
func TestCoverageBitsetWordBoundary(t *testing.T) {
	for _, k := range []int{0, 64, 65} {
		tb := table.NewBuilder(table.MustSchema(
			[]*table.Attribute{table.NewIntegerAttribute("A", k+3), table.NewIntegerAttribute("B", 2)},
			table.NewIntegerAttribute("S", 3)), 0)
		var groups [][]int
		for a := 0; a < k+3; a++ {
			r := 2 * a
			tb.MustAppendRow([]int{a, 0}, a%3)
			tb.MustAppendRow([]int{a, 1}, (a+1)%3)
			if a < k {
				groups = append(groups, []int{r, r + 1})
			} else {
				groups = append(groups, []int{r}, []int{r + 1})
			}
		}
		tbl := tb.Build()
		g, err := generalize.Suppress(tbl, generalize.NewPartition(groups))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(g.Coverage().General); got != k {
			t.Fatalf("K=%d: the release has %d general groups", k, got)
		}
		checkAgainstGroupScan(t, fmt.Sprintf("K=%d", k), g)
	}
}
