package hilbert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(nil, 4); err == nil {
		t.Error("empty coordinates accepted")
	}
	if _, err := Encode([]uint32{1}, 0); err == nil {
		t.Error("zero bits accepted")
	}
	if _, err := Encode([]uint32{1}, 40); err == nil {
		t.Error("bits > 32 accepted")
	}
	if _, err := Encode(make([]uint32, 10), 8); err == nil {
		t.Error("80-bit index accepted")
	}
	if _, err := Encode([]uint32{9}, 3); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
}

// TestEncode2DOrder3 checks the classic 2x2 and 4x4 Hilbert curve orders.
func TestEncode2D(t *testing.T) {
	// Order-1 (2x2) curve: (0,0)=0 (0,1)=1 (1,1)=2 (1,0)=3 in the standard
	// orientation of Skilling's algorithm (x first, then y).
	got := map[[2]uint32]uint64{}
	for x := uint32(0); x < 2; x++ {
		for y := uint32(0); y < 2; y++ {
			got[[2]uint32{x, y}] = MustEncode([]uint32{x, y}, 1)
		}
	}
	// The four indices must be a permutation of 0..3 and adjacent indices
	// must differ in exactly one coordinate by one (curve continuity).
	seen := map[uint64][2]uint32{}
	for p, h := range got {
		if h > 3 {
			t.Fatalf("index %d out of range", h)
		}
		seen[h] = p
	}
	if len(seen) != 4 {
		t.Fatalf("indices are not a permutation: %v", got)
	}
	for h := uint64(0); h < 3; h++ {
		a, b := seen[h], seen[h+1]
		dist := abs(int(a[0])-int(b[0])) + abs(int(a[1])-int(b[1]))
		if dist != 1 {
			t.Errorf("curve not continuous between %v and %v", a, b)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestEncodeBijective checks that the encoding is a bijection onto
// [0, 2^(d*bits)) for several small configurations.
func TestEncodeBijective(t *testing.T) {
	configs := []struct{ d, bits int }{{2, 2}, {2, 3}, {3, 2}, {4, 1}}
	for _, cfg := range configs {
		size := 1 << uint(cfg.d*cfg.bits)
		seen := make(map[uint64]bool, size)
		coords := make([]uint32, cfg.d)
		var rec func(dim int)
		rec = func(dim int) {
			if dim == cfg.d {
				h := MustEncode(coords, cfg.bits)
				if h >= uint64(size) {
					t.Fatalf("d=%d bits=%d: index %d out of range", cfg.d, cfg.bits, h)
				}
				if seen[h] {
					t.Fatalf("d=%d bits=%d: duplicate index %d", cfg.d, cfg.bits, h)
				}
				seen[h] = true
				return
			}
			for v := uint32(0); v < 1<<uint(cfg.bits); v++ {
				coords[dim] = v
				rec(dim + 1)
			}
		}
		rec(0)
		if len(seen) != size {
			t.Fatalf("d=%d bits=%d: %d distinct indices, want %d", cfg.d, cfg.bits, len(seen), size)
		}
	}
}

// TestEncodeContinuity checks curve continuity property for a 3-D curve:
// consecutive Hilbert indices correspond to points at L1 distance exactly 1.
func TestEncodeContinuity3D(t *testing.T) {
	const bits = 2
	const d = 3
	size := 1 << uint(d*bits)
	points := make([][]uint32, size)
	coords := make([]uint32, d)
	var rec func(dim int)
	rec = func(dim int) {
		if dim == d {
			h := MustEncode(coords, bits)
			cp := make([]uint32, d)
			copy(cp, coords)
			points[h] = cp
			return
		}
		for v := uint32(0); v < 1<<uint(bits); v++ {
			coords[dim] = v
			rec(dim + 1)
		}
	}
	rec(0)
	for h := 0; h+1 < size; h++ {
		dist := 0
		for j := 0; j < d; j++ {
			dist += abs(int(points[h][j]) - int(points[h+1][j]))
		}
		if dist != 1 {
			t.Fatalf("consecutive indices %d,%d map to points at distance %d", h, h+1, dist)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 79: 7, 256: 8}
	for card, want := range cases {
		if got := BitsFor(card); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", card, got, want)
		}
	}
}

func randomTable(rng *rand.Rand, n, d, dom, m int) *table.Table {
	qi := make([]*table.Attribute, d)
	for j := 0; j < d; j++ {
		qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), dom)
	}
	tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", m)), 0)
	row := make([]int, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Intn(dom)
		}
		tb.MustAppendRow(row, rng.Intn(m))
	}
	return tb.Build()
}

func TestSuppressorProducesLDiversePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		l := 2 + rng.Intn(4)
		tbl := randomTable(rng, 50+rng.Intn(100), 1+rng.Intn(4), 2+rng.Intn(8), l+rng.Intn(4))
		if !eligibility.IsEligibleTable(tbl, l) {
			continue
		}
		p, err := NewSuppressor(l).Anonymize(tbl)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(tbl); err != nil {
			t.Fatalf("partition invalid: %v", err)
		}
		if !eligibility.IsLDiversePartition(tbl, p.Groups, l) {
			t.Fatalf("partition not %d-diverse", l)
		}
	}
}

func TestSuppressorRejectsInfeasible(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(2)), 10, 2, 3, 1) // single SA value
	if _, err := NewSuppressor(5).Anonymize(tbl); err == nil {
		t.Error("infeasible table accepted")
	}
	if _, err := NewSuppressor(0).Anonymize(tbl); err == nil {
		t.Error("l = 0 accepted")
	}
}

func TestSuppressorL1SingletonGroups(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(3)), 20, 2, 3, 2)
	rows := []int{0, 1, 2, 3}
	groups, err := NewSuppressor(1).PartitionRows(tbl, rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(rows) {
		t.Errorf("l=1 should produce singleton groups, got %d groups", len(groups))
	}
}

func TestSuppressorEmptyRows(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(4)), 10, 1, 2, 2)
	groups, err := NewSuppressor(2).PartitionRows(tbl, nil, 2)
	if err != nil || groups != nil {
		t.Errorf("empty input should return nil, nil; got %v, %v", groups, err)
	}
}

// TestSuppressorGroupsAreSmall checks that on a friendly input (uniform SA)
// the suppressor produces groups close to the minimum size l, which is what
// makes it a competitive baseline.
func TestSuppressorGroupsAreSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const l = 4
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 16), table.NewIntegerAttribute("B", 16)},
		table.NewIntegerAttribute("S", 8)), 0)
	for i := 0; i < 400; i++ {
		tb.MustAppendRow([]int{rng.Intn(16), rng.Intn(16)}, i%8)
	}
	tbl := tb.Build()
	p, err := NewSuppressor(l).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, g := range p.Groups {
		total += len(g)
	}
	avg := float64(total) / float64(len(p.Groups))
	if avg > 2.5*l {
		t.Errorf("average group size %.1f is too large for a uniform input", avg)
	}
}

// TestSuppressorLocality checks that the Hilbert ordering buys locality: on a
// clustered input the Hilbert suppressor needs fewer stars than a random
// grouping of the same sizes.
func TestSuppressorLocality(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const l = 2
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("X", 32), table.NewIntegerAttribute("Y", 32)},
		table.NewIntegerAttribute("S", 4)), 0)
	for c := 0; c < 10; c++ {
		cx, cy := rng.Intn(28), rng.Intn(28)
		for i := 0; i < 30; i++ {
			tb.MustAppendRow([]int{cx + rng.Intn(4), cy + rng.Intn(4)}, rng.Intn(4))
		}
	}
	tbl := tb.Build()
	p, err := NewSuppressor(l).Anonymize(tbl)
	if err != nil {
		t.Fatal(err)
	}
	hilbertStars := suppressedStars(t, tbl, p)

	// Random partition with similar group sizes.
	perm := rng.Perm(tbl.Len())
	var randGroups [][]int
	for start := 0; start < len(perm); start += l {
		end := start + l
		if end > len(perm) {
			end = len(perm)
		}
		randGroups = append(randGroups, perm[start:end])
	}
	randStars := suppressedStars(t, tbl, generalize.NewPartition(randGroups))
	if hilbertStars >= randStars {
		t.Errorf("Hilbert grouping (%d stars) should beat random grouping (%d stars) on clustered data", hilbertStars, randStars)
	}
}

// Property: PartitionRows always covers exactly the requested rows.
func TestPartitionRowsCoverageQuick(t *testing.T) {
	tbl := randomTable(rand.New(rand.NewSource(20)), 200, 3, 5, 6)
	f := func(seed int64, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := int(lRaw%3) + 2
		k := 20 + rng.Intn(100)
		perm := rng.Perm(tbl.Len())[:k]
		if !eligibility.IsEligibleRows(tbl, perm, l) {
			return true
		}
		groups, err := NewSuppressor(l).PartitionRows(tbl, perm, l)
		if err != nil {
			return false
		}
		want := make(map[int]bool, k)
		for _, r := range perm {
			want[r] = true
		}
		count := 0
		for _, g := range groups {
			if !eligibility.IsEligibleRows(tbl, g, l) {
				return false
			}
			for _, r := range g {
				if !want[r] {
					return false
				}
				count++
			}
		}
		return count == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
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
