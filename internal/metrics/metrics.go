// Package metrics implements the information-loss measures of the paper's
// evaluation beyond the star counts of Problems 1 and 2 (the Stars and
// SuppressedTuples methods of generalize.Generalized): the KL-divergence
// between the distribution induced by a generalized table and the microdata
// distribution (Equation 2, Section 6.2), and auxiliary statistics such as the
// discernibility penalty and average group size.
package metrics

import (
	"errors"
	"math"
	"math/bits"
	"sync/atomic"

	"ldiv/internal/generalize"
	"ldiv/internal/parallel"
)

// AverageGroupSize returns the mean QI-group size of a partition.
func AverageGroupSize(p *generalize.Partition) float64 {
	if p.Size() == 0 {
		return 0
	}
	total := 0
	for _, g := range p.Groups {
		total += len(g)
	}
	return float64(total) / float64(p.Size())
}

// Discernibility returns the discernibility penalty: the sum over QI-groups
// of the squared group size. Smaller is better.
func Discernibility(p *generalize.Partition) int {
	total := 0
	for _, g := range p.Groups {
		total += len(g) * len(g)
	}
	return total
}

// KLDivergence computes KL(f, f*) of Equation 2: f is the empirical
// distribution of the microdata over the (d+1)-dimensional space of QI and SA
// values; f* is the distribution induced by the generalized table, where a
// star (or sub-domain) spreads a tuple's mass uniformly over the attribute's
// domain (or the sub-domain). A release whose cells cover the original values
// has f*(p) > 0 wherever f(p) > 0, so the divergence is finite; any other
// release is an error.
//
// The points of f are the SA values of each GroupByQI group, visited in that
// deterministic order. The exact groups' mass at a point is read off the
// release's coverage index (generalize.Coverage) as the point's exact rows.
// The general groups covering the point's QI vector are one AND of bitset
// rows per QI group; those that also hold the point's SA value v are that
// mask ANDed with v's bitset, and each one's weight sits in v's weight list
// at its rank among v's holders. The weights are added in ascending group
// order, so f* is summed in partition order.
//
// The points' terms are summed in blocks of klBlockGroups consecutive
// GroupByQI groups, on up to one goroutine per CPU, and the block sums are
// then added in block order. The blocks are fixed by the grouping alone, so
// the result has the same bits at every worker count; a table with at most
// one block's groups is summed in one loop on the calling goroutine.
func KLDivergence(g *generalize.Generalized) (float64, error) {
	return klDivergence(g, parallel.WorkerCount(0), klBlockGroups)
}

// klBlockGroups is the number of GroupByQI groups whose KL terms are summed
// as one block. Changing it changes KL's last bits; serve-sized tables of a
// few thousand rows have fewer groups and are summed in one block.
const klBlockGroups = 4096

// errUncovered is KLDivergence's error for a release that does not cover
// the microdata.
var errUncovered = errors.New("metrics: induced distribution assigns zero mass to an observed point; the generalization does not cover the microdata")

// klDivergence is KLDivergence summing blocks of block groups on at most
// workers goroutines.
func klDivergence(g *generalize.Generalized, workers, block int) (float64, error) {
	t := g.Source
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	sch := t.Schema()
	cov := g.Coverage()
	words := cov.Words()
	sadom := t.SADomainSize()
	counter := t.SAGroupCounter()

	// holds[v*words+w] is word w of the bitset of the general groups holding
	// SA value v; weight[first[v*words+w]] is the f* weight, for v, of the
	// lowest group set in that word, and the holders of v follow in order.
	holds := make([]uint64, sadom*words)
	for k, gi := range cov.General {
		_, vals := counter.Count(g.Partition.Groups[gi])
		for _, v := range vals {
			holds[int(v)*words+k/64] |= uint64(1) << (k % 64)
		}
	}
	first := make([]int, len(holds))
	next := make([]int, sadom)
	total := 0
	for i, word := range holds {
		if i%words == 0 {
			next[i/words] = total
		}
		first[i] = total
		total += bits.OnesCount64(word)
	}
	weight := make([]float64, total)
	for _, gi := range cov.General {
		rows := g.Partition.Groups[gi]
		mass := 1.0
		for j, c := range g.Cells[rows[0]] {
			mass /= float64(c.Width(sch.QI(j).Cardinality()))
		}
		counts, vals := counter.Count(rows)
		for _, v := range vals {
			weight[next[v]] = float64(counts[v]) / float64(n) * mass
			next[v]++
		}
	}

	sa := t.SAView()
	cols := make([][]int32, t.Dimensions())
	for j := range cols {
		cols[j] = t.Col(j)
	}
	groups := t.GroupByQI()
	sums := make([]float64, (len(groups)+block-1)/block)
	var claimed atomic.Int64
	err := parallel.Run(workers, min(workers, len(sums)), func(int) error {
		counter := t.SAGroupCounter()
		exactCnt := make([]int32, sadom)
		qi := make([]int, len(cols))
		mask := make([]uint64, words)
		for b := int(claimed.Add(1)) - 1; b < len(sums); b = int(claimed.Add(1)) - 1 {
			kl := 0.0
			for _, rows := range groups[b*block : min((b+1)*block, len(groups))] {
				for _, r := range rows {
					if cov.ExactRow[r] {
						exactCnt[sa[r]]++
					}
				}
				for j, col := range cols {
					qi[j] = int(col[rows[0]])
				}
				cov.Covering(mask, qi)
				counts, vals := counter.Count(rows)
				for _, v := range vals {
					f := float64(counts[v]) / float64(n)
					fstar := float64(exactCnt[v]) / float64(n)
					exactCnt[v] = 0
					base := int(v) * words
					for w, m := range mask {
						held := holds[base+w]
						for m &= held; m != 0; m &= m - 1 {
							below := uint64(1)<<bits.TrailingZeros64(m) - 1
							fstar += weight[first[base+w]+bits.OnesCount64(held&below)]
						}
					}
					if fstar <= 0 {
						return errUncovered
					}
					kl += f * math.Log(f/fstar)
				}
			}
			sums[b] = kl
		}
		return nil
	})
	if errors.Is(err, errUncovered) {
		return 0, errUncovered
	}
	if err != nil {
		return 0, err
	}
	kl := 0.0
	for _, s := range sums {
		kl += s
	}
	return kl, nil
}
