package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

func TestHungarianKnownCases(t *testing.T) {
	cases := []struct {
		cost [][]float64
		want float64
	}{
		{[][]float64{{1}}, 1},
		{[][]float64{{1, 2}, {2, 1}}, 2},
		{[][]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}, 5},
		{[][]float64{
			{9, 2, 7, 8},
			{6, 4, 3, 7},
			{5, 8, 1, 8},
			{7, 6, 9, 4},
		}, 13},
	}
	for i, c := range cases {
		assign, total, err := Hungarian(c.cost)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(total-c.want) > 1e-9 {
			t.Errorf("case %d: total = %v, want %v (assignment %v)", i, total, c.want, assign)
		}
		seen := make(map[int]bool)
		for _, j := range assign {
			if seen[j] {
				t.Errorf("case %d: assignment is not a permutation", i)
			}
			seen[j] = true
		}
	}
}

func TestHungarianValidation(t *testing.T) {
	if _, _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if assign, total, err := Hungarian(nil); err != nil || assign != nil || total != 0 {
		t.Error("empty matrix should be a no-op")
	}
}

// TestHungarianAgainstBruteForce checks optimality on random small matrices.
func TestHungarianAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, n)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(20))
			}
		}
		_, got, err := Hungarian(cost)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceAssignment(cost)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Hungarian %v vs brute force %v", trial, got, want)
		}
	}
}

func bruteForceAssignment(cost [][]float64) float64 {
	n := len(cost)
	perm := make([]int, n)
	used := make([]bool, n)
	best := math.Inf(1)
	var rec func(i int, sum float64)
	rec = func(i int, sum float64) {
		if sum >= best {
			return
		}
		if i == n {
			best = sum
			return
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, sum+cost[i][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func twoSATable(rng *rand.Rand, pairs, d, dom int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := 0; j < d; j++ {
		qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), dom)
	}
	tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", 2)), 0)
	row := make([]int, d)
	for i := 0; i < pairs; i++ {
		for _, sa := range []int{0, 1} {
			for j := range row {
				row[j] = rng.Intn(dom)
			}
			tb.MustAppendRow(row, sa)
		}
	}
	return tb.Build()
}

func TestOptimalTwoDiverseValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		tbl := twoSATable(rng, 2+rng.Intn(8), 1+rng.Intn(3), 3)
		p, stars, err := OptimalTwoDiverse(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(tbl); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !eligibility.IsLDiversePartition(tbl, p.Groups, 2) {
			t.Fatal("matching output not 2-diverse")
		}
		for _, g := range p.Groups {
			if len(g) != 2 {
				t.Fatalf("group size %d, want 2", len(g))
			}
		}
		if got := suppressedStars(t, tbl, p); got != stars {
			t.Fatalf("reported stars %d != recomputed %d", stars, got)
		}
	}
}

func TestOptimalTwoDiverseErrors(t *testing.T) {
	// Three sensitive values.
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 3)), 0)
	for i := 0; i < 3; i++ {
		tb.MustAppendRow([]int{0}, i)
	}
	tbl := tb.Build()
	if _, _, err := OptimalTwoDiverse(tbl); err == nil {
		t.Error("table with three SA values accepted")
	}
	// Unbalanced classes.
	tbl2b := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 2)},
		table.NewIntegerAttribute("S", 2)), 0)
	tbl2b.MustAppendRow([]int{0}, 0)
	tbl2b.MustAppendRow([]int{0}, 0)
	tbl2b.MustAppendRow([]int{1}, 1)
	tbl2 := tbl2b.Build()
	if _, _, err := OptimalTwoDiverse(tbl2); err == nil {
		t.Error("unbalanced table accepted")
	}
}

// Property: the matching solution never uses more stars than pairing the two
// classes in input order (any particular perfect matching is an upper bound).
func TestOptimalTwoDiverseIsOptimalQuick(t *testing.T) {
	f := func(seed int64, pairsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pairs := int(pairsRaw%6) + 1
		tbl := twoSATable(rng, pairs, 2, 3)
		p, stars, err := OptimalTwoDiverse(tbl)
		if err != nil || p == nil {
			return false
		}
		var s1, s2 []int
		for i := 0; i < tbl.Len(); i++ {
			if tbl.SAValue(i) == 0 {
				s1 = append(s1, i)
			} else {
				s2 = append(s2, i)
			}
		}
		naive := make([][]int, len(s1))
		for i := range s1 {
			naive[i] = []int{s1[i], s2[i]}
		}
		naiveStars := suppressedStars(t, tbl, generalize.NewPartition(naive))
		return stars <= naiveStars
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// suppressedStars counts the stars of p's suppression generalization.
func suppressedStars(t testing.TB, tbl *table.Table, p *generalize.Partition) int {
	t.Helper()
	g, err := generalize.Suppress(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	return g.Stars()
}
