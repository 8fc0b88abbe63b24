// Package dataset generates the synthetic census microdata used by the
// evaluation. The paper experiments on SAL and OCC, two 600k-tuple
// projections of the IPUMS American Community Survey; that data cannot be
// redistributed, so this package produces seeded synthetic tables with the
// exact attribute set and domain sizes of Table 6, Zipf-skewed marginals and
// mild inter-attribute correlation. The anonymization algorithms only observe
// categorical value identifiers and their joint frequencies, so the
// evaluation trends (growth with l and d, the TP/Hilbert crossover, linear
// scaling in n) are preserved; absolute star counts naturally differ from the
// paper's.
package dataset

import (
	"fmt"
	"math/rand"

	"ldiv/internal/table"
)

// Domain sizes of Table 6.
const (
	AgeCardinality        = 79
	GenderCardinality     = 2
	RaceCardinality       = 9
	MaritalCardinality    = 6
	BirthPlaceCardinality = 56
	EducationCardinality  = 17
	WorkClassCardinality  = 9
	IncomeCardinality     = 50
	OccupationCardinality = 50
)

// QINames lists the seven quasi-identifier attributes shared by SAL and OCC,
// in the column order used throughout the experiments.
var QINames = []string{"Age", "Gender", "Race", "Marital Status", "Birth Place", "Education", "Work Class"}

// QICardinalities lists the domain sizes of QINames in the same order.
var QICardinalities = []int{
	AgeCardinality, GenderCardinality, RaceCardinality, MaritalCardinality,
	BirthPlaceCardinality, EducationCardinality, WorkClassCardinality,
}

// Config controls the synthetic generators. Rows and Seed apply to every
// family of the scenario corpus (see corpus.go); the remaining knobs
// parameterize individual families and are ignored — at their zero value —
// by the families that do not consume them.
type Config struct {
	// Rows is the number of tuples to generate. The paper uses 600000.
	Rows int
	// Seed makes generation reproducible.
	Seed int64
	// Correlation tunes the corr-sa family: the probability that a row's
	// sensitive value is the fixed bijective image of its first QI value.
	// 0 means the family default (0.85); valid values are in [0,1].
	Correlation float64
	// SACard overrides the sensitive domain size of the heavytail-sa
	// family. 0 means the family default (2500).
	SACard int
	// L parameterizes the sa-card-l family (the sensitive domain holds
	// exactly L balanced values). 0 means the family default (3).
	L int
}

// DefaultConfig returns the paper-scale configuration (600k rows).
func DefaultConfig() Config { return Config{Rows: 600000, Seed: 1} }

func generate(cfg Config, saName string, saCard int) (*table.Table, error) {
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("dataset: Rows must be positive, got %d", cfg.Rows)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	qi := make([]*table.Attribute, len(QINames))
	for i, name := range QINames {
		qi[i] = table.NewIntegerAttribute(name, QICardinalities[i])
	}
	sa := table.NewIntegerAttribute(saName, saCard)
	// The row count is known up front, so the table's column arena is
	// allocated exactly once and the append loop below never reallocates.
	t := table.NewWithCapacity(table.MustSchema(qi, sa), cfg.Rows)

	// Skewed samplers per attribute. Zipf exponents are mild so that every
	// value still occurs, matching the heavy-but-not-degenerate skew of
	// census marginals.
	age := newZipfShuffled(rng, 1.1, AgeCardinality)
	race := newZipfShuffled(rng, 1.6, RaceCardinality)
	marital := newZipfShuffled(rng, 1.3, MaritalCardinality)
	birth := newZipfShuffled(rng, 1.5, BirthPlaceCardinality)
	education := newZipfShuffled(rng, 1.2, EducationCardinality)
	work := newZipfShuffled(rng, 1.4, WorkClassCardinality)
	// The sensitive attribute must stay l-eligible for the whole l = 2..10
	// range of the evaluation, so its marginal is skewed but bounded: no
	// value receives more than roughly 6% of the mass.
	saBase := newWeightedSampler(rng, saCard, 10)

	row := make([]int, len(QINames))
	for i := 0; i < cfg.Rows; i++ {
		a := age.sample(rng)
		g := rng.Intn(GenderCardinality)
		r := race.sample(rng)
		m := marital.sample(rng)
		b := birth.sample(rng)
		// Education loosely correlates with age: older cohorts shift toward
		// the lower-coded levels.
		e := education.sample(rng)
		if a < AgeCardinality/4 && e > EducationCardinality/2 && rng.Intn(2) == 0 {
			e = rng.Intn(EducationCardinality / 2)
		}
		w := work.sample(rng)
		// The sensitive value correlates with the QI attributes: a fraction
		// of draws is replaced by a deterministic blend, which makes the
		// joint distribution non-uniform without starving any value. Income
		// (SAL) leans on age and education; Occupation (OCC) leans on
		// education and work class, so the two datasets differ even when
		// generated from the same seed.
		s := saBase.sample(rng)
		if rng.Intn(4) == 0 {
			if saName == "Income" {
				s = (a/2 + e*3 + rng.Intn(7)) % saCard
			} else {
				s = (e*3 + w*5 + rng.Intn(7)) % saCard
			}
		}

		row[0], row[1], row[2], row[3], row[4], row[5], row[6] = a, g, r, m, b, e, w
		if err := t.AppendRow(row, s); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// zipfShuffled samples Zipf-distributed ranks and maps them through a random
// permutation of the domain, so that the skew is not aligned with code order.
type zipfShuffled struct {
	z    *rand.Zipf
	perm []int
}

func newZipfShuffled(rng *rand.Rand, s float64, card int) *zipfShuffled {
	if card < 1 {
		card = 1
	}
	z := rand.NewZipf(rng, s, 1.0, uint64(card-1))
	return &zipfShuffled{z: z, perm: rng.Perm(card)}
}

func (zs *zipfShuffled) sample(rng *rand.Rand) int {
	if zs.z == nil {
		return 0
	}
	return zs.perm[int(zs.z.Uint64())]
}

// weightedSampler draws from a harmonic-tail distribution with weights
// 1/(rank+offset), mapped through a random permutation. Larger offsets make
// the distribution flatter; the heaviest value receives roughly
// (1/offset) / ln((card+offset)/offset) of the mass.
type weightedSampler struct {
	cum  []float64
	perm []int
}

func newWeightedSampler(rng *rand.Rand, card, offset int) *weightedSampler {
	if card < 1 {
		card = 1
	}
	if offset < 1 {
		offset = 1
	}
	cum := make([]float64, card)
	total := 0.0
	for i := 0; i < card; i++ {
		total += 1.0 / float64(i+offset)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &weightedSampler{cum: cum, perm: rng.Perm(card)}
}

func (ws *weightedSampler) sample(rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(ws.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ws.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ws.perm[lo]
}

// Projections returns every size-d subset of the seven QI attribute names, in
// a deterministic order: the SAL-d / OCC-d families of Section 6.1 contain
// one projection of the base table per subset.
func Projections(d int) ([][]string, error) {
	if d < 1 || d > len(QINames) {
		return nil, fmt.Errorf("dataset: d must be in [1,%d], got %d", len(QINames), d)
	}
	var out [][]string
	combo := make([]int, d)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == d {
			names := make([]string, d)
			for i, idx := range combo {
				names[i] = QINames[idx]
			}
			out = append(out, names)
			return
		}
		for i := start; i <= len(QINames)-(d-k); i++ {
			combo[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return out, nil
}

// ProjectionTables builds the SAL-d (or OCC-d) family from a base table:
// one projected table per size-d attribute subset, each a zero-copy view
// sharing the base table's column storage. If maxTables > 0,
// only the first maxTables projections are returned (the order is
// deterministic), which the experiment harness uses to bound running time.
func ProjectionTables(base *table.Table, d, maxTables int) ([]*table.Table, error) {
	combos, err := Projections(d)
	if err != nil {
		return nil, err
	}
	if maxTables > 0 && len(combos) > maxTables {
		combos = combos[:maxTables]
	}
	out := make([]*table.Table, 0, len(combos))
	for _, names := range combos {
		p, err := base.ProjectNames(names)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
