// Package attack audits the privacy of a published generalization by
// simulating the linking adversary of Section 1: someone who knows every
// individual's quasi-identifier values and tries to infer their sensitive
// value from the published table. For each tuple it computes the adversary's
// confidence (the frequency of the tuple's true sensitive value inside the
// set of published rows compatible with the tuple's QI values), which is the
// quantity l-diversity bounds by 1/l and k-anonymity fails to bound (the
// homogeneity problem of Table 2).
package attack

import (
	"fmt"
	"math/bits"

	"ldiv/internal/generalize"
	"ldiv/internal/table"
)

// Report summarizes the linking-attack risk of a published table.
type Report struct {
	// Confidences[i] is the adversary's confidence in the true sensitive
	// value of row i: |{rows in i's matching set with i's SA value}| divided
	// by the matching-set size.
	Confidences []float64
	// MaxConfidence is the largest entry of Confidences.
	MaxConfidence float64
	// MeanConfidence is the average entry of Confidences.
	MeanConfidence float64
	// Disclosed counts the rows whose sensitive value is disclosed with
	// certainty (confidence 1).
	Disclosed int
}

// AtRisk returns the number of individuals whose sensitive value can be
// inferred with confidence strictly greater than the threshold (0 < t <= 1).
func (r *Report) AtRisk(threshold float64) int {
	count := 0
	for _, c := range r.Confidences {
		if c > threshold+1e-12 {
			count++
		}
	}
	return count
}

// BreachProbability returns the fraction of individuals whose sensitive value
// can be inferred with confidence strictly greater than 1/l.
func (r *Report) BreachProbability(l int) float64 {
	if len(r.Confidences) == 0 || l <= 0 {
		return 0
	}
	return float64(r.AtRisk(1.0/float64(l))) / float64(len(r.Confidences))
}

// Audit simulates the linking attack against a published generalization. The
// adversary knows each individual's exact QI values (the standard assumption
// of Section 2, "anonymization principles") and the published table; their
// matching set for individual i is the set of published rows whose cells
// cover i's QI values.
//
// Individuals sharing a QI vector share a matching set, so the attack runs
// once per GroupByQI group, in that deterministic order. The release's
// coverage index (generalize.Coverage) gives the matching set: the group's
// exact rows, read off the exact-row mask, plus the general groups whose bits
// survive the AND of the QI vector's bitset rows. A QI vector that no
// published group covers is an error.
func Audit(g *generalize.Generalized) (*Report, error) {
	t := g.Source
	n := t.Len()
	rep := &Report{Confidences: make([]float64, n)}
	if n == 0 {
		return rep, nil
	}
	cov := g.Coverage()

	type saCount struct{ v, c int32 }
	type group struct {
		size int
		hist []saCount
	}
	generals := make([]group, len(cov.General))
	counter := t.SAGroupCounter()
	for k, gi := range cov.General {
		rows := g.Partition.Groups[gi]
		counts, vals := counter.Count(rows)
		hist := make([]saCount, len(vals))
		for i, v := range vals {
			hist[i] = saCount{v: v, c: counts[v]}
		}
		generals[k] = group{size: len(rows), hist: hist}
	}

	sa := t.SAView()
	matchHist := make([]int, t.SADomainSize())
	qi := make([]int, t.Dimensions())
	cols := make([][]int32, len(qi))
	for j := range cols {
		cols[j] = t.Col(j)
	}
	mask := make([]uint64, cov.Words())
	var covering []int
	total := 0.0
	for _, rows := range t.GroupByQI() {
		for j, col := range cols {
			qi[j] = int(col[rows[0]])
		}
		matchSize := 0
		for _, r := range rows {
			if cov.ExactRow[r] {
				matchHist[sa[r]]++
				matchSize++
			}
		}
		cov.Covering(mask, qi)
		covering = covering[:0]
		for w, m := range mask {
			for ; m != 0; m &= m - 1 {
				k := w*64 + bits.TrailingZeros64(m)
				covering = append(covering, k)
				matchSize += generals[k].size
				for _, h := range generals[k].hist {
					matchHist[h.v] += int(h.c)
				}
			}
		}
		if matchSize == 0 {
			return nil, fmt.Errorf("attack: row %d is not covered by any published group", rows[0])
		}
		for _, i := range rows {
			conf := float64(matchHist[sa[i]]) / float64(matchSize)
			rep.Confidences[i] = conf
			total += conf
			if conf >= 1-1e-12 {
				rep.Disclosed++
			}
			if conf > rep.MaxConfidence {
				rep.MaxConfidence = conf
			}
		}
		for _, i := range rows {
			matchHist[sa[i]] = 0
		}
		for _, k := range covering {
			for _, h := range generals[k].hist {
				matchHist[h.v] = 0
			}
		}
	}
	rep.MeanConfidence = total / float64(n)
	return rep, nil
}

// AuditPartition is a convenience wrapper that applies suppression to the
// partition and audits the result.
func AuditPartition(t *table.Table, p *generalize.Partition) (*Report, error) {
	g, err := generalize.Suppress(t, p)
	if err != nil {
		return nil, err
	}
	return Audit(g)
}
