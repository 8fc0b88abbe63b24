// Package incognito implements a full-domain single-dimensional
// generalization baseline in the style of Incognito (LeFevre, DeWitt,
// Ramakrishnan, SIGMOD 2005), adapted to l-diversity: every QI attribute is
// generalized to one fixed level of its hierarchy, and the algorithm searches
// the lattice of level vectors for the minimal vectors whose induced grouping
// is l-diverse, returning the one with the least generalization. The paper
// cites full-domain recoding [26] among the single-dimensional methods that
// can be used both as baselines and as the pre-coarsening step of
// Section 5.6.
package incognito

import (
	"fmt"
	"sort"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
	"ldiv/internal/taxonomy"
)

// Anonymizer runs the full-domain lattice search.
type Anonymizer struct {
	// L is the diversity parameter.
	L int
	// Hierarchies holds one generalization hierarchy per QI attribute, in
	// column order. If nil, balanced fanout-4 hierarchies are used.
	Hierarchies []*taxonomy.Hierarchy
	// MaxCandidates bounds the number of lattice nodes whose grouping is
	// materialized and checked; 0 means no bound. The search space is the
	// product of the hierarchy heights plus one, so bounding it keeps
	// high-dimensional runs predictable.
	MaxCandidates int
}

// NewAnonymizer returns an Incognito-style anonymizer with default
// hierarchies.
func NewAnonymizer(l int) *Anonymizer { return &Anonymizer{L: l} }

// Result describes the chosen generalization level per attribute alongside
// the published table.
type Result struct {
	// Levels[j] is the chosen generalization level of attribute j
	// (0 = original values, Heights[j] = fully generalized).
	Levels []int
	// Heights[j] is the height of attribute j's hierarchy.
	Heights []int
	// Generalized is the published table.
	Generalized *generalize.Generalized
	// Checked is the number of lattice nodes whose grouping was evaluated.
	Checked int
}

// Anonymize searches the generalization lattice bottom-up and returns the
// minimal l-diverse full-domain generalization with the least total
// normalized generalization height.
func (a *Anonymizer) Anonymize(t *table.Table) (*Result, error) {
	l := a.L
	if l < 1 {
		return nil, fmt.Errorf("incognito: invalid l = %d", l)
	}
	if !eligibility.IsEligibleTable(t, l) {
		return nil, fmt.Errorf("incognito: table is not %d-eligible", l)
	}
	d := t.Dimensions()
	hs := a.Hierarchies
	if hs == nil {
		hs = make([]*taxonomy.Hierarchy, d)
		for j := 0; j < d; j++ {
			hs[j] = taxonomy.NewFanout(t.Schema().QI(j), 4)
		}
	}
	if len(hs) != d {
		return nil, fmt.Errorf("incognito: %d hierarchies for %d QI attributes", len(hs), d)
	}
	for j, h := range hs {
		if h.Attribute != t.Schema().QI(j) {
			return nil, fmt.Errorf("incognito: hierarchy %d is not built on attribute %q", j, t.Schema().QI(j).Name())
		}
	}

	// ancestors[j][code][level] is the hierarchy node publishing `code` when
	// attribute j is generalized to `level`. ids assigns a stable integer to
	// every node of these hierarchies for group signatures.
	heights := make([]int, d)
	ancestors := make([][][]*taxonomy.Node, d)
	ids := make(map[*taxonomy.Node]int)
	for j, h := range hs {
		heights[j] = hierarchyHeight(h)
		card := h.Attribute.Cardinality()
		ancestors[j] = make([][]*taxonomy.Node, card)
		for c := 0; c < card; c++ {
			chain := ancestorChain(h.Leaf(c), heights[j])
			for _, n := range chain {
				if _, ok := ids[n]; !ok {
					ids[n] = len(ids) + 1
				}
			}
			ancestors[j][c] = chain
		}
	}

	// Breadth-first over level vectors ordered by total level, pruning any
	// vector that dominates an already-found minimal valid vector
	// (monotonicity: coarser vectors are valid too, but never minimal).
	maxSum := 0
	for _, h := range heights {
		maxSum += h
	}
	var minimal [][]int
	var best []int
	bestScore := -1.0
	checked := 0

	dominates := func(v []int) bool {
		for _, m := range minimal {
			ge := true
			for j := range v {
				if v[j] < m[j] {
					ge = false
					break
				}
			}
			if ge {
				return true
			}
		}
		return false
	}

	for sum := 0; sum <= maxSum; sum++ {
		for _, v := range vectorsWithSum(heights, sum) {
			if dominates(v) {
				continue
			}
			if a.MaxCandidates > 0 && checked >= a.MaxCandidates {
				break
			}
			checked++
			if a.isDiverse(t, ancestors, ids, v) {
				cp := append([]int(nil), v...)
				minimal = append(minimal, cp)
				score := 0.0
				for j, lev := range v {
					if heights[j] > 0 {
						score += float64(lev) / float64(heights[j])
					}
				}
				if best == nil || score < bestScore {
					best, bestScore = cp, score
				}
			}
		}
	}
	if best == nil {
		// The all-root vector always induces a single group equal to the
		// table, which is l-eligible; reaching this point means the candidate
		// budget was exhausted first.
		best = append([]int(nil), heights...)
	}
	gen, err := render(t, ancestors, ids, best)
	if err != nil {
		return nil, err
	}
	return &Result{Levels: best, Heights: heights, Generalized: gen, Checked: checked}, nil
}

// groupsAt groups the rows by their recoded signature under the level
// vector. The recoding of each attribute is resolved once into a dense
// code -> node-id table for the vector's level, so the row scan reads the
// gathered columns and two flat arrays per attribute — no per-row map or
// accessor calls.
func groupsAt(t *table.Table, ancestors [][][]*taxonomy.Node, ids map[*taxonomy.Node]int, levels []int) [][]int {
	d := len(levels)
	idAt := make([][]int32, d)
	cols := make([][]int32, d)
	for j, lev := range levels {
		cols[j] = t.Col(j)
		idAt[j] = make([]int32, len(ancestors[j]))
		for code, chain := range ancestors[j] {
			idAt[j][code] = int32(ids[chain[lev]])
		}
	}
	return table.GroupBySignature(t.Len(), func(i int, key []byte) []byte {
		for j := 0; j < d; j++ {
			id := idAt[j][cols[j][i]]
			key = append(key, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), ',')
		}
		return key
	})
}

// isDiverse checks whether the grouping induced by the level vector is
// l-diverse. Group histograms use one dense counter keyed by group id.
func (a *Anonymizer) isDiverse(t *table.Table, ancestors [][][]*taxonomy.Node, ids map[*taxonomy.Node]int, levels []int) bool {
	counter := t.SAGroupCounter()
	for _, g := range groupsAt(t, ancestors, ids, levels) {
		if !eligibility.IsEligibleGroup(counter, g, a.L) {
			return false
		}
	}
	return true
}

// render publishes the table at the chosen levels: cells are resolved once
// per (attribute, code), and the level-signature groups become the release's
// partition.
func render(t *table.Table, ancestors [][][]*taxonomy.Node, ids map[*taxonomy.Node]int, levels []int) (*generalize.Generalized, error) {
	cellAt := make([][]generalize.Cell, len(levels))
	for j, lev := range levels {
		cellAt[j] = make([]generalize.Cell, len(ancestors[j]))
		for code, chain := range ancestors[j] {
			n := chain[lev]
			if n.IsLeaf() {
				cellAt[j][code] = generalize.Cell{Kind: generalize.CellExact, Value: n.Codes[0]}
			} else {
				cellAt[j][code] = generalize.Cell{Kind: generalize.CellSet, Set: append([]int(nil), n.Codes...)}
			}
		}
	}
	return generalize.Recode(t, groupsAt(t, ancestors, ids, levels), cellAt)
}

// --- lattice helpers ---------------------------------------------------------

// hierarchyHeight returns the maximum root-to-leaf edge count.
func hierarchyHeight(h *taxonomy.Hierarchy) int {
	var depth func(n *taxonomy.Node) int
	depth = func(n *taxonomy.Node) int {
		if n.IsLeaf() {
			return 0
		}
		max := 0
		for _, ch := range n.Children {
			if d := depth(ch); d > max {
				max = d
			}
		}
		return max + 1
	}
	return depth(h.Root)
}

// ancestorChain returns, for each level 0..height, the node publishing the
// leaf when its attribute is generalized to that level: level 0 is the leaf
// itself, each further level moves one step toward the root, saturating at
// the root.
func ancestorChain(leaf *taxonomy.Node, height int) []*taxonomy.Node {
	chain := make([]*taxonomy.Node, height+1)
	cur := leaf
	for lev := 0; lev <= height; lev++ {
		chain[lev] = cur
		if cur.Parent != nil {
			cur = cur.Parent
		}
	}
	return chain
}

// vectorsWithSum enumerates all level vectors bounded by heights whose
// components sum to the given value, in lexicographic order.
func vectorsWithSum(heights []int, sum int) [][]int {
	var out [][]int
	v := make([]int, len(heights))
	var rec func(j, remaining int)
	rec = func(j, remaining int) {
		if j == len(heights) {
			if remaining == 0 {
				out = append(out, append([]int(nil), v...))
			}
			return
		}
		max := heights[j]
		if max > remaining {
			max = remaining
		}
		for lev := 0; lev <= max; lev++ {
			v[j] = lev
			rec(j+1, remaining-lev)
		}
		v[j] = 0
	}
	rec(0, sum)
	sort.Slice(out, func(a, b int) bool {
		for i := range out[a] {
			if out[a][i] != out[b][i] {
				return out[a][i] < out[b][i]
			}
		}
		return false
	})
	return out
}
