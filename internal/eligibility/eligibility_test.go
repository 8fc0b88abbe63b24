package eligibility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ldiv/internal/table"
)

func smallTable(t *testing.T, saValues []int) *table.Table {
	t.Helper()
	tb := table.NewBuilder(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("A", 4)},
		table.NewIntegerAttribute("S", 10)), 0)
	for i, v := range saValues {
		tb.MustAppendRow([]int{i % 4}, v)
	}
	return tb.Build()
}

// dense turns a sparse SA histogram into the dense counts slice that
// SACounts returns, indexed by SA value.
func dense(hist map[int]int) []int {
	counts := []int{}
	for v, c := range hist {
		for len(counts) <= v {
			counts = append(counts, 0)
		}
		counts[v] = c
	}
	return counts
}

func TestMaxFrequency(t *testing.T) {
	if MaxFrequencyCounts(dense(nil)) != 0 {
		t.Error("empty histogram should have max frequency 0")
	}
	hist := map[int]int{1: 3, 2: 5, 3: 1}
	if got := MaxFrequencyCounts(dense(hist)); got != 5 {
		t.Errorf("MaxFrequencyCounts = %d, want 5", got)
	}
	if got := histMax(hist); got != 5 {
		t.Errorf("histMax = %d, want 5", got)
	}
}

func TestIsEligibleHistogram(t *testing.T) {
	cases := []struct {
		hist map[int]int
		l    int
		want bool
	}{
		{map[int]int{}, 3, true},
		{map[int]int{1: 1}, 1, true},
		{map[int]int{1: 1}, 2, false},
		{map[int]int{1: 1, 2: 1}, 2, true},
		{map[int]int{1: 2, 2: 1}, 2, false},
		{map[int]int{1: 2, 2: 2}, 2, true},
		{map[int]int{1: 2, 2: 1, 3: 1}, 2, true},
		{map[int]int{1: 3, 2: 3, 3: 3}, 3, true},
		{map[int]int{1: 4, 2: 3, 3: 3}, 3, false},
	}
	for i, c := range cases {
		if got := IsEligibleCounts(dense(c.hist), c.l); got != c.want {
			t.Errorf("case %d: IsEligibleCounts(%v, %d) = %v, want %v", i, dense(c.hist), c.l, got, c.want)
		}
		if got := histEligible(c.hist, c.l); got != c.want {
			t.Errorf("case %d: histEligible(%v, %d) = %v, want %v", i, c.hist, c.l, got, c.want)
		}
	}
}

// histMax and histEligible are the sparse-map forms of MaxFrequencyCounts
// and IsEligibleCounts, the oracles of the dense paths.
func histMax(hist map[int]int) int {
	max := 0
	for _, c := range hist {
		if c > max {
			max = c
		}
	}
	return max
}

func histEligible(hist map[int]int, l int) bool {
	if l <= 1 {
		return true
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	return histMax(hist) <= total/l
}

// TestCountsFastPaths checks the dense-slice paths against map histograms on
// fixed cases and random histograms.
func TestCountsFastPaths(t *testing.T) {
	if MaxFrequencyCounts(nil) != 0 {
		t.Error("empty counts should have max frequency 0")
	}
	if got := MaxFrequencyCounts([]int{0, 3, 5, 1}); got != 5 {
		t.Errorf("MaxFrequencyCounts = %d, want 5", got)
	}
	if !IsEligibleCounts(nil, 3) || !IsEligibleCounts([]int{0, 0}, 2) {
		t.Error("empty multiset should be eligible for any l")
	}
	if !IsEligibleCounts([]int{7}, 1) {
		t.Error("l <= 1 should always be eligible")
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		counts := make([]int, 1+rng.Intn(10))
		hist := make(map[int]int)
		for v := range counts {
			c := rng.Intn(5)
			counts[v] = c
			if c > 0 {
				hist[v] = c
			}
		}
		if MaxFrequencyCounts(counts) != histMax(hist) {
			t.Fatalf("trial %d: MaxFrequencyCounts(%v) != histMax(%v)", trial, counts, hist)
		}
		for l := 1; l <= 4; l++ {
			if IsEligibleCounts(counts, l) != histEligible(hist, l) {
				t.Fatalf("trial %d: IsEligibleCounts(%v, %d) disagrees with the map histogram", trial, counts, l)
			}
		}
	}
}

// TestCountsAgreeWithTable ties the fast paths to Table.SACounts.
func TestCountsAgreeWithTable(t *testing.T) {
	tbl := smallTable(t, []int{0, 0, 1, 2, 2, 2})
	hist := make(map[int]int)
	for _, v := range tbl.SAView() {
		hist[v]++
	}
	if got, want := MaxFrequencyCounts(tbl.SACounts()), histMax(hist); got != want {
		t.Errorf("MaxFrequencyCounts = %d, map histogram max = %d", got, want)
	}
	for l := 1; l <= 4; l++ {
		if IsEligibleCounts(tbl.SACounts(), l) != IsEligibleTable(tbl, l) {
			t.Errorf("l=%d: IsEligibleCounts disagrees with IsEligibleTable", l)
		}
	}
}

func TestTableEligibility(t *testing.T) {
	tbl := smallTable(t, []int{0, 0, 1, 2})
	if !IsEligibleTable(tbl, 2) {
		t.Error("table should be 2-eligible")
	}
	if IsEligibleTable(tbl, 3) {
		t.Error("table should not be 3-eligible")
	}
	if got := MaxEligibleL(tbl); got != 2 {
		t.Errorf("MaxEligibleL = %d, want 2", got)
	}
	if !IsEligibleRows(tbl, []int{2, 3}, 2) {
		t.Error("rows {2,3} should be 2-eligible")
	}
	if IsEligibleRows(tbl, []int{0, 1}, 2) {
		t.Error("rows {0,1} share one SA value and cannot be 2-eligible")
	}
}

func TestPartitionPredicates(t *testing.T) {
	tbl := smallTable(t, []int{0, 1, 0, 1, 2, 3})
	good := [][]int{{0, 1}, {2, 3}, {4, 5}}
	bad := [][]int{{0, 2}, {1, 3}, {4, 5}}
	if !IsLDiversePartition(tbl, good, 2) {
		t.Error("good partition rejected")
	}
	if IsLDiversePartition(tbl, bad, 2) {
		t.Error("bad partition accepted")
	}
	if !IsKAnonymousPartition(good, 2) || IsKAnonymousPartition([][]int{{1}}, 2) {
		t.Error("k-anonymity predicate wrong")
	}
	if !CoversTable(tbl, good) {
		t.Error("good partition should cover the table")
	}
	if CoversTable(tbl, [][]int{{0, 1}}) {
		t.Error("partial partition reported as covering")
	}
	if CoversTable(tbl, [][]int{{0, 0, 1, 2, 3, 4, 5}}) {
		t.Error("duplicate row accepted as covering")
	}
}

// Property (Lemma 1, monotonicity): the union of two disjoint l-eligible row
// sets is l-eligible.
func TestMonotonicityQuick(t *testing.T) {
	f := func(seed int64, lRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := int(lRaw%4) + 2
		build := func() map[int]int {
			h := make(map[int]int)
			// Build an l-eligible histogram directly: k distinct values each
			// with a bounded count such that total >= l*max.
			k := l + rng.Intn(4)
			max := 1 + rng.Intn(3)
			for v := 0; v < k; v++ {
				h[v] = 1 + rng.Intn(max)
			}
			// Pad the least frequent values until eligible.
			for !histEligible(h, l) {
				minV := 0
				for v := range h {
					if h[v] < h[minV] {
						minV = v
					}
				}
				h[minV]++
			}
			return h
		}
		h1, h2 := build(), build()
		if !histEligible(h1, l) || !histEligible(h2, l) {
			return false
		}
		union := make(map[int]int)
		for v, c := range h1 {
			union[v] += c
		}
		for v, c := range h2 {
			union[v] += c
		}
		return histEligible(union, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
