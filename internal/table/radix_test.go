package table

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestRadixSortUint64MatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 255, 256, 1000, 5000} {
		for _, bits := range []uint{1, 7, 8, 9, 16, 24, 37, 53, 64} {
			keys := make([]uint64, n)
			mask := ^uint64(0)
			if bits < 64 {
				mask = uint64(1)<<bits - 1
			}
			for i := range keys {
				keys[i] = rng.Uint64() & mask
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			radixSortUint64(keys, bits)
			if !slices.Equal(keys, want) {
				t.Fatalf("n=%d bits=%d: radixSortUint64 diverges from slices.Sort", n, bits)
			}
		}
	}
}

func TestRadixSortUint64ConstantBytes(t *testing.T) {
	// All keys share every byte except the middle one: the skip-pass logic
	// must still produce a sorted array.
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = 0xab<<16 | uint64(i%256)<<8 | 0xcd
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	radixSortUint64(keys, 24)
	if !slices.Equal(keys, want) {
		t.Fatal("radixSortUint64 mis-sorts keys with constant high/low bytes")
	}
}

func TestRadixSortRowsByKeyStable(t *testing.T) {
	// Many duplicate keys: equal-key rows must come out in ascending row
	// order (the table-order tie-break GroupByQI relies on).
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 500, 4096} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(17)) // heavy duplication
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		radixSortRowsByKey(rows, keys, 5)
		for i := 1; i < n; i++ {
			a, b := rows[i-1], rows[i]
			if keys[a] > keys[b] {
				t.Fatalf("n=%d: keys out of order at %d", n, i)
			}
			if keys[a] == keys[b] && a > b {
				t.Fatalf("n=%d: stability violated at %d: row %d before %d", n, i, a, b)
			}
		}
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

func TestGroupByQIRadixMatchesReference(t *testing.T) {
	// Sized above radixMinN so the radix paths run; small cardinalities force
	// heavy key duplication and exercise the tie-break.
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct {
		name  string
		cards []int
		rows  int
	}{
		{"fast-path", []int{13, 7, 5}, 3 * radixMinN},
		{"many-attrs", []int{3, 3, 3, 3, 3, 3}, 2 * radixMinN},
		{"single-attr", []int{101}, 2 * radixMinN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qi := make([]*Attribute, len(tc.cards))
			for j, c := range tc.cards {
				qi[j] = NewIntegerAttribute(fmt.Sprintf("q%d", j), c)
			}
			tbl := New(MustSchema(qi, NewIntegerAttribute("sa", 8)))
			row := make([]int, len(tc.cards))
			for i := 0; i < tc.rows; i++ {
				for j, c := range tc.cards {
					row[j] = rng.Intn(c)
				}
				tbl.MustAppendRow(row, rng.Intn(8))
			}
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

func TestGroupByQIMiddlePathRadix(t *testing.T) {
	// Rank bits fit one word but rank+row bits do not: a 60-bit QI key over
	// >radixMinN rows forces the keyed-rows radix path.
	qi := []*Attribute{
		NewIntegerAttribute("a", 1<<15),
		NewIntegerAttribute("b", 1<<15),
		NewIntegerAttribute("c", 1<<15),
		NewIntegerAttribute("d", 1<<15),
	}
	tbl := New(MustSchema(qi, NewIntegerAttribute("sa", 4)))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < radixMinN+100; i++ {
		// Tiny value range keeps groups large despite the huge domains.
		tbl.MustAppendRow([]int{rng.Intn(3), rng.Intn(3), rng.Intn(2), rng.Intn(2)}, rng.Intn(4))
	}
	got := tbl.GroupByQI()
	want := groupByQIRef(tbl)
	if len(got) != len(want) {
		t.Fatalf("group count: got %d want %d", len(got), len(want))
	}
	for g := range got {
		if !slices.Equal(got[g], want[g]) {
			t.Fatalf("group %d differs", g)
		}
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
		tbl := New(s)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			tbl.MustAppendRow([]int{rng.Intn(50), rng.Intn(9)}, rng.Intn(4))
		}
		return tbl
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

// BenchmarkRadixKernels pits the LSD radix sort against slices.Sort on the
// exact packed-key workload GroupByQI's fast path produces (rank key in the
// high bits, row index in the low bits), at sizes straddling radixMinN. The
// acceptance bar for this repo: radix must win at n >= 100k.
func BenchmarkRadixKernels(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(42))
		rowBits := uint(bitsFor(n))
		base := make([]uint64, n)
		for i := range base {
			// ~13 bits of rank key over a SAL-like 4-attribute schema.
			base[i] = uint64(rng.Intn(1<<13))<<rowBits | uint64(i)
		}
		usedBits := 13 + rowBits
		work := make([]uint64, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, base)
				radixSortUint64(work, usedBits)
			}
		})
		b.Run(fmt.Sprintf("stdsort/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(work, base)
				slices.Sort(work)
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
	tbl := New(MustSchema(qi, NewIntegerAttribute("sa", 24)))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8192; i++ {
		tbl.MustAppendRow([]int{rng.Intn(91), rng.Intn(2), rng.Intn(17), rng.Intn(9)}, rng.Intn(24))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := tbl.Clone()
		b.StartTimer()
		fresh.GroupByQI()
	}
}
