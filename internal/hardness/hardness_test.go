package hardness

import (
	"math/rand"
	"testing"

	"ldiv/internal/core"
	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// figure1Instance is the example of Figure 1a: D1={1,2,3,4}, D2={a,b,c,d},
// D3={alpha,beta,gamma,delta}, with the six points p1..p6.
func figure1Instance() *Instance3DM {
	// Coordinates are encoded as indices: 1..4 -> 0..3, a..d -> 0..3,
	// alpha..delta -> 0..3 (alpha=0, beta=1, gamma=2, delta=3).
	return &Instance3DM{
		N: 4,
		Points: [][3]int{
			{0, 0, 3}, // p1 = (1, a, delta)
			{0, 1, 2}, // p2 = (1, b, gamma)
			{1, 2, 0}, // p3 = (2, c, alpha)
			{1, 1, 0}, // p4 = (2, b, alpha)
			{2, 1, 2}, // p5 = (3, b, gamma)
			{3, 3, 1}, // p6 = (4, d, beta)
		},
	}
}

func TestValidate(t *testing.T) {
	in := figure1Instance()
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Instance3DM{N: 2, Points: [][3]int{{0, 0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	dup := &Instance3DM{N: 1, Points: [][3]int{{0, 0, 0}, {0, 0, 0}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate point accepted")
	}
	short := &Instance3DM{N: 3, Points: [][3]int{{0, 0, 0}}}
	if err := short.Validate(); err == nil {
		t.Error("fewer points than N accepted")
	}
}

// TestFigure1Table checks the constructed table against the values printed in
// Figure 1b (m = 8).
func TestFigure1Table(t *testing.T) {
	in := figure1Instance()
	red, err := Build(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	tbl := red.Table
	if tbl.Len() != 12 || tbl.Dimensions() != 6 {
		t.Fatalf("table shape %dx%d, want 12x6", tbl.Len(), tbl.Dimensions())
	}
	// Figure 1b rows (0-based): row, A1..A6, B.
	want := [][7]int{
		{0, 0, 1, 1, 1, 1, 1},
		{2, 2, 0, 0, 2, 2, 2},
		{3, 3, 3, 3, 0, 3, 3},
		{4, 4, 4, 4, 4, 0, 4},
		{0, 5, 5, 5, 5, 5, 5},
		{6, 0, 6, 0, 0, 6, 6},
		{7, 7, 0, 7, 7, 7, 7},
		{7, 7, 7, 7, 7, 0, 7},
		{8, 8, 0, 0, 8, 8, 8},
		{8, 8, 8, 8, 8, 0, 8},
		{8, 0, 8, 8, 0, 8, 8},
		{0, 8, 8, 8, 8, 8, 8},
	}
	for j, row := range want {
		for i := 0; i < 6; i++ {
			if got := tbl.QIAt(j, i); got != row[i] {
				t.Errorf("row %d, A%d = %d, want %d", j+1, i+1, got, row[i])
			}
		}
		if got := tbl.SAValue(j); got != row[6] {
			t.Errorf("row %d, B = %d, want %d", j+1, got, row[6])
		}
	}
	if err := red.CheckProperty1(); err != nil {
		t.Error(err)
	}
	if err := red.CheckConstruction(); err != nil {
		t.Error(err)
	}
}

func TestBuildValidation(t *testing.T) {
	in := figure1Instance()
	if _, err := Build(in, 2); err == nil {
		t.Error("m < 3 accepted")
	}
	if _, err := Build(in, 13); err == nil {
		t.Error("m > 3N accepted")
	}
}

// TestBuildVariousM exercises all three branches of the sensitive-value
// assignment and verifies the construction invariants for each.
func TestBuildVariousM(t *testing.T) {
	in := figure1Instance()
	for m := 3; m <= 12; m++ {
		red, err := Build(in, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := red.CheckProperty1(); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
		if err := red.CheckConstruction(); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// TestLemma3YesDirection: the Figure 1 instance has a perfect matching
// {p1, p3, p5, p6}; the corresponding partition must be 3-diverse with
// exactly 3n(d-1) stars.
func TestLemma3YesDirection(t *testing.T) {
	in := figure1Instance()
	red, err := Build(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	sol, ok := Solve3DM(in)
	if !ok {
		t.Fatal("Figure 1 instance should have a matching")
	}
	groups, err := red.MatchingPartition(sol)
	if err != nil {
		t.Fatal(err)
	}
	p := generalize.NewPartition(groups)
	if err := p.Validate(red.Table); err != nil {
		t.Fatal(err)
	}
	if !eligibility.IsLDiversePartition(red.Table, p.Groups, 3) {
		t.Fatal("matching partition not 3-diverse")
	}
	if err := red.CheckUsefulGroups(p); err != nil {
		t.Fatal(err)
	}
	stars := suppressedStars(t, red.Table, p)
	if stars != red.StarsTarget() {
		t.Errorf("stars = %d, want 3n(d-1) = %d", stars, red.StarsTarget())
	}
}

// TestLemma3NoInstance: an instance without a perfect matching cannot reach
// the 3n(d-1) target with the partition induced by any point subset; also,
// running TP on its table still produces a valid 3-diverse table (TP is an
// approximation, so it only gives an upper bound on stars).
func TestNoMatchingInstance(t *testing.T) {
	// All points share the same D3 coordinate, so no perfect matching exists
	// for N >= 2.
	in := &Instance3DM{N: 2, Points: [][3]int{{0, 0, 0}, {1, 1, 0}, {0, 1, 0}, {1, 0, 0}}}
	if _, ok := Solve3DM(in); ok {
		t.Fatal("instance should have no matching")
	}
	red, err := Build(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewAnonymizer(3).Anonymize(red.Table)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Partition()
	if !eligibility.IsLDiversePartition(red.Table, p.Groups, 3) {
		t.Fatal("TP output on the reduction table is not 3-diverse")
	}
	// Property 4: any 3-diverse generalization has at least 3n(d-1) stars.
	if stars := suppressedStars(t, red.Table, p); stars < red.StarsTarget() {
		t.Errorf("stars = %d below the Property 4 lower bound %d", stars, red.StarsTarget())
	}
}

// TestProperty4LowerBound checks Property 4 against random 3-diverse
// partitions of reduction tables.
func TestProperty4LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := figure1Instance()
	red, err := Build(in, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := red.Table.Len()
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(4)
		groups := make([][]int, k)
		for r := 0; r < n; r++ {
			b := rng.Intn(k)
			groups[b] = append(groups[b], r)
		}
		p := generalize.NewPartition(groups)
		if !eligibility.IsLDiversePartition(red.Table, p.Groups, 3) {
			continue
		}
		if stars := suppressedStars(t, red.Table, p); stars < red.StarsTarget() {
			t.Fatalf("3-diverse partition with %d stars violates the %d lower bound", stars, red.StarsTarget())
		}
	}
}

// TestMatchingPartitionValidation exercises the error paths.
func TestMatchingPartitionValidation(t *testing.T) {
	in := figure1Instance()
	red, _ := Build(in, 8)
	if _, err := red.MatchingPartition([]int{0}); err == nil {
		t.Error("wrong solution size accepted")
	}
	if _, err := red.MatchingPartition([]int{0, 1, 2, 99}); err == nil {
		t.Error("out-of-range point accepted")
	}
	// p1 and p2 share the D1 coordinate 1: not a matching.
	if _, err := red.MatchingPartition([]int{0, 1, 4, 5}); err == nil {
		t.Error("non-matching solution accepted")
	}
}

func TestSolve3DMOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(4)
		// Start from a guaranteed matching, add noise points.
		perm2, perm3 := rng.Perm(n), rng.Perm(n)
		points := make([][3]int, 0, n+4)
		for i := 0; i < n; i++ {
			points = append(points, [3]int{i, perm2[i], perm3[i]})
		}
		for extra := 0; extra < 4; extra++ {
			p := [3]int{rng.Intn(n), rng.Intn(n), rng.Intn(n)}
			dup := false
			for _, q := range points {
				if q == p {
					dup = true
					break
				}
			}
			if !dup {
				points = append(points, p)
			}
		}
		in := &Instance3DM{N: n, Points: points}
		sol, ok := Solve3DM(in)
		if !ok {
			t.Fatalf("trial %d: planted matching not found", trial)
		}
		// Verify the solution is a matching.
		u1, u2, u3 := map[int]bool{}, map[int]bool{}, map[int]bool{}
		for _, pi := range sol {
			p := in.Points[pi]
			if u1[p[0]] || u2[p[1]] || u3[p[2]] {
				t.Fatalf("trial %d: returned solution is not a matching", trial)
			}
			u1[p[0]], u2[p[1]], u3[p[2]] = true, true, true
		}
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
