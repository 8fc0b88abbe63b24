// Package metrics implements the information-loss measures of the paper's
// evaluation: the number of stars (Problem 1), the number of suppressed
// tuples (Problem 2), the KL-divergence between the distribution induced by a
// generalized table and the microdata distribution (Equation 2, Section 6.2),
// and auxiliary statistics such as the discernibility penalty and average
// group size.
package metrics

import (
	"fmt"
	"math"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// Stars returns the number of stars in a generalized table.
func Stars(g *generalize.Generalized) int { return g.Stars() }

// SuppressedTuples returns the number of rows with at least one star.
func SuppressedTuples(g *generalize.Generalized) int { return g.SuppressedTuples() }

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
// domain (or the sub-domain). Cells always cover the original values, so
// f*(p) > 0 wherever f(p) > 0 and the divergence is finite.
//
// The points of f are the SA values of each GroupByQI group, visited in that
// deterministic order. An exact group (no star, no set) covers only its own
// QI vector, so its mass at a point is read off the exact-row mask; each
// general group is listed under every SA value it holds, with its f* weight
// for that value, so a point scans only the general groups sharing its SA
// value.
func KLDivergence(g *generalize.Generalized) (float64, error) {
	t := g.Source
	n := t.Len()
	if n == 0 {
		return 0, nil
	}
	sch := t.Schema()
	exact, general := g.SplitExact()

	type weighted struct {
		cells  []generalize.Cell
		weight float64 // count of the SA value / n * product of 1/width
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
				return 0, fmt.Errorf("metrics: induced distribution assigns zero mass to an observed point; the generalization does not cover the microdata")
			}
			kl += f * math.Log(f/fstar)
		}
	}
	return kl, nil
}

// KLDivergenceOfPartition is a convenience wrapper: it applies suppression to
// the partition and measures the KL-divergence of the result.
func KLDivergenceOfPartition(t *table.Table, p *generalize.Partition) (float64, error) {
	g, err := generalize.Suppress(t, p)
	if err != nil {
		return 0, err
	}
	return KLDivergence(g)
}
