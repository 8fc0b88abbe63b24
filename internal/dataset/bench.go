package dataset

import (
	"fmt"
	"math/rand"

	"ldiv/internal/table"
)

// BenchTable returns a deterministic synthetic table for TP-core benchmarks
// and equivalence tests: rows over d integer QI attributes of domain qiDom
// each, and a sensitive attribute of domain saDom. With zipf false the SA
// values are uniform; with zipf true they follow a bounded Zipf distribution
// (s = 1.5, v = 16) whose head value stays under ~7% of the rows, so the
// table remains l-eligible for every l the benchmarks sweep (l <= 10).
//
// Unlike the census families, this generator controls SA skew and group
// granularity directly, which is what the TP core's flat data structures are
// sensitive to. It is not a catalog family.
func BenchTable(rows, d, qiDom, saDom int, zipf bool, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	qi := make([]*table.Attribute, d)
	for j := range qi {
		qi[j] = table.NewIntegerAttribute(fmt.Sprintf("Q%c", 'A'+j), qiDom)
	}
	t := table.New(table.MustSchema(qi, table.NewIntegerAttribute("S", saDom)))
	var z *rand.Zipf
	if zipf {
		z = rand.NewZipf(rng, 1.5, 16, uint64(saDom-1))
	}
	row := make([]int, d)
	for i := 0; i < rows; i++ {
		for j := range row {
			row[j] = rng.Intn(qiDom)
		}
		var sa int
		if zipf {
			sa = int(z.Uint64())
		} else {
			sa = rng.Intn(saDom)
		}
		t.MustAppendRow(row, sa)
	}
	return t
}

// Phase3HeavyTable returns a table engineered so that TP with phase two
// disabled (the ablation configuration, the documented route into phase
// three) must run phase-three rounds:
//
//   - sheddingGroups QI-groups each hold l+1 copies of one of p "heavy"
//     sensitive values plus l-1 singleton fillers. Phase one sheds exactly l
//     heavy copies per group, so the residue ends up holding only heavy
//     values, at height l*sheddingGroups/p; with p < l it is far from
//     l-eligible and phase three starts.
//   - coverGroups QI-groups are fat: two heavy values at multiplicity 3 (their
//     pillars, conflicting with R) plus a wide pool of light fillers at
//     multiplicity 2. They survive phase one untouched and are the groups the
//     phase-three greedy cover and re-kill step grind through.
//
// The heavy-value count p is fixed at max(2, l-2) so the residue's pillar set
// has several values for the cover to intersect. The caller should pick
// sheddingGroups and coverGroups so the table stays l-eligible overall (the
// wide filler pool dilutes the heavy values); the defaults used by the
// benchmarks (l=6, 40, 60) give a ~2200-row table that runs multiple rounds.
// Like BenchTable, it is not a catalog family.
func Phase3HeavyTable(l, sheddingGroups, coverGroups int) *table.Table {
	p := l - 2
	if p < 2 {
		p = 2
	}
	fillerA := l - 1              // singleton fillers per shedding group
	fillerPool := 8 * l           // domain of the light cover fillers
	fillerPerCover := (3*l)/2 - 2 // 2-copy fillers per cover group: len > 3l keeps it fat

	saDom := p + fillerA + fillerPool
	groups := sheddingGroups + coverGroups
	t := table.New(table.MustSchema(
		[]*table.Attribute{table.NewIntegerAttribute("G", groups)},
		table.NewIntegerAttribute("S", saDom)))

	for g := 0; g < sheddingGroups; g++ {
		heavy := g % p
		for c := 0; c < l+1; c++ {
			t.MustAppendRow([]int{g}, heavy)
		}
		for f := 0; f < fillerA; f++ {
			t.MustAppendRow([]int{g}, p+f)
		}
	}
	for b := 0; b < coverGroups; b++ {
		g := sheddingGroups + b
		// The second heavy value is offset by a nonzero amount mod p so the
		// two pillars of a cover group are always distinct.
		for _, heavy := range []int{b % p, (b + 1 + (b/p)%(p-1)) % p} {
			for c := 0; c < 3; c++ {
				t.MustAppendRow([]int{g}, heavy)
			}
		}
		for f := 0; f < fillerPerCover; f++ {
			v := p + fillerA + (b*fillerPerCover+f)%fillerPool
			for c := 0; c < 2; c++ {
				t.MustAppendRow([]int{g}, v)
			}
		}
	}
	return t
}
