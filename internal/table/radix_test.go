package table

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkRadixSortPairs sorts keys, with rows 0..n-1 beside them, through
// radixSortPairs and checks every (key, row) pair against
// slices.SortStableFunc, so both key order and the table-order tie-break of
// equal keys are checked.
func checkRadixSortPairs(t *testing.T, keys []uint64, usedBits uint) {
	t.Helper()
	type pair struct {
		key uint64
		row int
	}
	n := len(keys)
	rows := make([]int, n)
	want := make([]pair, n)
	for i, k := range keys {
		rows[i] = i
		want[i] = pair{k, i}
	}
	slices.SortStableFunc(want, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	keys, rows = radixSortPairs(keys, rows, usedBits)
	for i, p := range want {
		if keys[i] != p.key || rows[i] != p.row {
			t.Fatalf("position %d: got (%#x, row %d), want (%#x, row %d)", i, keys[i], rows[i], p.key, p.row)
		}
	}
}

// randomKeys draws n keys of the given used-bit width from n/8+1 distinct
// values, so equal keys are common.
func randomKeys(rng *rand.Rand, n int, bits uint) []uint64 {
	mask := ^uint64(0)
	if bits < 64 {
		mask = uint64(1)<<bits - 1
	}
	pool := make([]uint64, n/8+1)
	for i := range pool {
		pool[i] = rng.Uint64() & mask
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = pool[rng.Intn(len(pool))]
	}
	return keys
}

var radixTestSizes = []int{0, 1, 2, 255, 4097}

func TestRadixSortUint64MatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []uint{1, 7, 8, 9, 17, 24, 47, 53, 64} {
		for _, n := range radixTestSizes {
			t.Run(fmt.Sprintf("bits=%d/n=%d", bits, n), func(t *testing.T) {
				checkRadixSortPairs(t, randomKeys(rng, n, bits), bits)
			})
		}
	}
}

func TestRadixSortUint64ConstantBytes(t *testing.T) {
	// Keys whose low, middle or high byte is the same everywhere: the kernel
	// skips that pass and must still sort the pairs stably.
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name    string
		byteIdx uint
	}{{"const-low", 0}, {"const-middle", 1}, {"const-high", 2}} {
		for _, n := range radixTestSizes {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				keys := randomKeys(rng, n, 24)
				for i := range keys {
					keys[i] = keys[i]&^(0xff<<(8*tc.byteIdx)) | 0xcd<<(8*tc.byteIdx)
				}
				checkRadixSortPairs(t, keys, 24)
			})
		}
	}
	t.Run("only-middle-varies", func(t *testing.T) {
		keys := make([]uint64, 4096)
		for i := range keys {
			keys[i] = 0xab<<16 | uint64(i%256)<<8 | 0xcd
		}
		checkRadixSortPairs(t, keys, 24)
	})
}

func TestRadixSortRowsByKeyStable(t *testing.T) {
	// Many duplicate keys: equal-key rows must come out in ascending row
	// order (the table-order tie-break GroupByQI relies on).
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 500, 4096} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(rng.Intn(17)) // heavy duplication
			}
			checkRadixSortPairs(t, keys, 5)
		})
	}
}

// groupByQIRef is an order-preserving string-keyed reference grouping: groups
// ordered by lexicographic QI key, rows in table order.
func groupByQIRef(tbl *Table) [][]int {
	byKey := make(map[string][]int)
	keys := make([]string, 0)
	for i := 0; i < tbl.Len(); i++ {
		k := tbl.QIKey(i)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	slices.Sort(keys)
	out := make([][]int, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// TestGroupByQIRadixMatchesReference checks GroupByQI against the string-keyed
// reference on schemas that pack into one, two and three rank words, on subsets,
// and on tiny and constant tables. Small value ranges force heavy key
// duplication, which exercises the table-order tie-break.
func TestGroupByQIRadixMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// build appends rows to a table whose QI attributes have the given
	// cardinalities; val draws attribute j's value (uniform by default).
	build := func(cards []int, rows int, val func(j int) int) *Table {
		qi := make([]*Attribute, len(cards))
		for j, c := range cards {
			qi[j] = NewIntegerAttribute(fmt.Sprintf("q%d", j), c)
		}
		if val == nil {
			val = func(j int) int { return rng.Intn(cards[j]) }
		}
		tb := NewBuilder(MustSchema(qi, NewIntegerAttribute("sa", 8)), 0)
		row := make([]int, len(cards))
		for i := 0; i < rows; i++ {
			for j := range row {
				row[j] = val(j)
			}
			tb.MustAppendRow(row, rng.Intn(8))
		}
		return tb.Build()
	}
	repeat := func(c, k int) []int { return slices.Repeat([]int{c}, k) }
	for _, tc := range []struct {
		name  string
		table func() *Table
	}{
		// fast-path, middle-path and wide-packing-* keep the names of the
		// sort paths they were written for, so results compare across
		// revisions.
		{"fast-path", func() *Table { return build([]int{13, 7, 5}, 6144, nil) }},
		{"many-attrs", func() *Table { return build(repeat(3, 6), 4096, nil) }},
		{"single-attr", func() *Table { return build([]int{101}, 4096, nil) }},
		// 4×15 bits of ranks fill most of one word.
		{"middle-path", func() *Table {
			return build(repeat(1<<15, 4), 2148, func(j int) int { return rng.Intn(3 - j/2) })
		}},
		// 5×13 = 65 bits: two words; 4×13 = 52 bits: one.
		{"wide-packing-5", func() *Table {
			return build(repeat(8000, 5), 300, func(int) int { return rng.Intn(5) * 1999 })
		}},
		{"wide-packing-4", func() *Table {
			return build(repeat(8000, 4), 300, func(int) int { return rng.Intn(5) * 1999 })
		}},
		// 12×15 bits: three words. 10 sorts before 7 by decimal string.
		{"three-words", func() *Table {
			return build(repeat(1<<15, 12), 3000, func(int) int { return []int{10, 7}[rng.Intn(2)] })
		}},
		{"three-words-subset", func() *Table {
			tbl := build(repeat(1<<15, 12), 3000, func(int) int { return []int{10, 7}[rng.Intn(2)] })
			return tbl.Subset(rng.Perm(tbl.Len()))
		}},
		{"subset-shuffled", func() *Table {
			tbl := build([]int{13, 7, 5}, 3000, nil)
			return tbl.Subset(rng.Perm(tbl.Len())[:2500])
		}},
		{"project", func() *Table {
			p, err := build([]int{13, 7, 5, 3}, 3000, nil).Project([]int{3, 0})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		{"n=1", func() *Table { return build([]int{13, 7}, 1, nil) }},
		{"n=2", func() *Table { return build([]int{13, 7}, 2, nil) }},
		{"constant", func() *Table { return build([]int{13, 7, 5}, 500, func(j int) int { return j + 1 }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := tc.table()
			got := tbl.GroupByQI()
			want := groupByQIRef(tbl)
			if len(got) != len(want) {
				t.Fatalf("group count: got %d want %d", len(got), len(want))
			}
			for g := range got {
				if !slices.Equal(got[g], want[g]) {
					t.Fatalf("group %d differs: got %v want %v", g, got[g], want[g])
				}
			}
		})
	}
}

func TestDecimalRankTableCached(t *testing.T) {
	a := NewIntegerAttribute("q", 120)
	r1 := a.decimalRankTable()
	r2 := a.decimalRankTable()
	if &r1[0] != &r2[0] {
		t.Fatal("decimalRankTable re-derived the table for an unchanged domain")
	}
	if want := decimalRanks(120); !slices.Equal(r1, want) {
		t.Fatal("cached rank table differs from decimalRanks")
	}

	// Growing the domain must invalidate the cache.
	a.Encode("brand-new-label")
	r3 := a.decimalRankTable()
	if len(r3) != 121 {
		t.Fatalf("rank table not recomputed after Encode: len=%d", len(r3))
	}
	if want := decimalRanks(121); !slices.Equal(r3, want) {
		t.Fatal("recomputed rank table differs from decimalRanks")
	}

	// Clone must not share the cache owner but must agree on contents.
	c := a.Clone()
	rc := c.decimalRankTable()
	if !slices.Equal(rc, r3) {
		t.Fatal("clone's rank table differs")
	}
}

func TestGroupByQIReusesRankTables(t *testing.T) {
	// Two tables over one schema: grouping the second must hit the cached
	// rank tables (pointer identity via decimalRankTable).
	qi := []*Attribute{NewIntegerAttribute("a", 50), NewIntegerAttribute("b", 9)}
	s := MustSchema(qi, NewIntegerAttribute("sa", 4))
	mk := func(seed int64) *Table {
		tb := NewBuilder(s, 0)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			tb.MustAppendRow([]int{rng.Intn(50), rng.Intn(9)}, rng.Intn(4))
		}
		return tb.Build()
	}
	t1, t2 := mk(1), mk(2)
	t1.GroupByQI()
	before := qi[0].decimalRankTable()
	t2.GroupByQI()
	after := qi[0].decimalRankTable()
	if &before[0] != &after[0] {
		t.Fatal("second same-schema GroupByQI re-derived the rank tables")
	}
}

// BenchmarkRadixSortPairs times the grouping kernel on 47-bit keys (the
// packed rank width of a wide SAL-like schema) with their row indices, at
// sizes from a few hundred rows to publish-wide's 100k. The sizes straddle
// 2048, where grouping once switched from a comparison sort to radix, so
// the cost of sorting short inputs by radix too is on record.
func BenchmarkRadixSortPairs(b *testing.B) {
	for _, n := range []int{512, 2048, 8192, 100_000} {
		rng := rand.New(rand.NewSource(42))
		base := make([]uint64, n)
		for i := range base {
			base[i] = rng.Uint64() & (1<<47 - 1)
		}
		keys, rows := make([]uint64, n), make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, base)
				for r := range rows {
					rows[r] = r
				}
				radixSortPairs(keys, rows, 47)
			}
		})
	}
}

// BenchmarkGroupByQIRankCache measures repeated grouping of same-schema
// tables. With the per-attribute rank-table cache, steady-state GroupByQI no
// longer re-derives the decimal-rank tables: the rank-table allocations
// (2 per attribute per call before the cache) vanish from allocs/op. Each
// iteration groups a fresh copy, made with the timer stopped, so the
// per-table GroupByQI memo never answers.
func BenchmarkGroupByQIRankCache(b *testing.B) {
	qi := []*Attribute{
		NewIntegerAttribute("a", 91),
		NewIntegerAttribute("b", 2),
		NewIntegerAttribute("c", 17),
		NewIntegerAttribute("d", 9),
	}
	tb := NewBuilder(MustSchema(qi, NewIntegerAttribute("sa", 24)), 0)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8192; i++ {
		tb.MustAppendRow([]int{rng.Intn(91), rng.Intn(2), rng.Intn(17), rng.Intn(9)}, rng.Intn(24))
	}
	tbl := tb.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := tbl.Clone()
		b.StartTimer()
		fresh.GroupByQI()
	}
}
