package table

import (
	"fmt"
	"slices"
	"testing"
)

// compareDecimal compares the decimal representations of two non-negative
// integers lexicographically (e.g. 10 sorts before 2, 9 before 90) using
// only integer arithmetic.
func compareDecimal(a, b int) int {
	if a == b {
		return 0
	}
	da, db := decimalDigits(a), decimalDigits(b)
	sa, sb := a, b
	for i := da; i < db; i++ {
		sa *= 10
	}
	for i := db; i < da; i++ {
		sb *= 10
	}
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	case da < db:
		return -1 // equal after scaling: a's representation prefixes b's
	default:
		return 1
	}
}

func decimalDigits(v int) int {
	d := 1
	for v >= 10 {
		v /= 10
		d++
	}
	return d
}

// decimalRanksBySort is the comparison sort decimalRanks replaced, kept as
// its oracle.
func decimalRanksBySort(c int) []int {
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, compareDecimal)
	rank := make([]int, c)
	for pos, code := range order {
		rank[code] = pos
	}
	return rank
}

func TestCompareDecimal(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {5, 5, 0}, {1, 2, -1}, {2, 1, 1},
		{10, 2, -1}, {2, 10, 1}, // "10" < "2"
		{9, 90, -1}, {90, 9, 1}, // prefix sorts first
		{100, 12, -1}, {19, 2, -1}, {21, 199, 1},
	}
	for _, c := range cases {
		if got := compareDecimal(c.a, c.b); got != c.want {
			t.Errorf("compareDecimal(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestDecimalRanksMatchesSort checks the digit-trie walk against the sort
// for every domain size up to 2000 and on both sides of each power of ten,
// where the walk's climb past the end of the domain changes shape.
func TestDecimalRanksMatchesSort(t *testing.T) {
	sizes := []int{}
	for c := 0; c <= 2000; c++ {
		sizes = append(sizes, c)
	}
	for p := 10; p <= 1000000; p *= 10 {
		sizes = append(sizes, p-1, p, p+1)
	}
	for _, c := range sizes {
		if got, want := decimalRanks(c), decimalRanksBySort(c); !slices.Equal(got, want) {
			t.Fatalf("decimalRanks(%d) differs from the sort", c)
		}
	}
}

// BenchmarkDecimalRanks compares the digit-trie walk with the comparison
// sort it replaced on a domain of 2^20 codes, the size at which a
// high-cardinality column makes the first grouping pay for the rank table.
func BenchmarkDecimalRanks(b *testing.B) {
	const c = 1 << 20
	for _, bc := range []struct {
		name  string
		ranks func(int) []int
	}{{"walk", decimalRanks}, {"sort", decimalRanksBySort}} {
		b.Run(fmt.Sprintf("%s/c=%d", bc.name, c), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				bc.ranks(c)
			}
		})
	}
}
