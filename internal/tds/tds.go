// Package tds implements the TDS baseline of Section 6.2: top-down
// specialization (Fung, Wang, Yu, ICDE 2005) over per-attribute
// generalization hierarchies, modified to enforce l-diversity instead of
// k-anonymity. It produces a single-dimensional generalization: every value
// of an attribute is mapped to the same sub-domain of the attribute's
// hierarchy cut, so the published table can be analyzed with off-the-shelf
// statistical software.
package tds

import (
	"fmt"
	"math"

	"ldiv/internal/eligibility"
	"ldiv/internal/generalize"
	"ldiv/internal/table"
	"ldiv/internal/taxonomy"
)

// Anonymizer runs TDS for l-diversity.
type Anonymizer struct {
	// L is the diversity parameter.
	L int
	// Hierarchies holds one generalization hierarchy per QI attribute, in
	// column order. If nil, balanced fanout-4 hierarchies are built over each
	// attribute's code order.
	Hierarchies []*taxonomy.Hierarchy
	// MaxSpecializations bounds the number of greedy specialization steps;
	// zero means no bound.
	MaxSpecializations int
}

// NewAnonymizer returns a TDS anonymizer with default hierarchies.
func NewAnonymizer(l int) *Anonymizer { return &Anonymizer{L: l} }

// Anonymize computes an l-diverse single-dimensional generalization of t.
func (a *Anonymizer) Anonymize(t *table.Table) (*generalize.Generalized, error) {
	l := a.L
	if l < 1 {
		return nil, fmt.Errorf("tds: invalid l = %d", l)
	}
	if !eligibility.IsEligibleTable(t, l) {
		return nil, fmt.Errorf("tds: table is not %d-eligible", l)
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
		return nil, fmt.Errorf("tds: %d hierarchies for %d QI attributes", len(hs), d)
	}
	for j, h := range hs {
		if h.Attribute != t.Schema().QI(j) {
			return nil, fmt.Errorf("tds: hierarchy %d is not built on QI attribute %q", j, t.Schema().QI(j).Name())
		}
	}

	st := newTDSState(t, hs, l)
	steps := 0
	for {
		if a.MaxSpecializations > 0 && steps >= a.MaxSpecializations {
			break
		}
		if !st.specializeBest() {
			break
		}
		steps++
	}
	return st.generalized()
}

// tdsState carries the current cut and the grouping it induces. The per-code
// state is dense: nodeOf[j] and sigIDs[j] are slices indexed by attribute j's
// value code, and the QI columns are gathered once up front, so every
// recoding loop is array loads instead of map lookups and accessor calls.
type tdsState struct {
	t  *table.Table
	hs []*taxonomy.Hierarchy
	l  int

	cols    [][]int32 // cols[j] = QI column j in row order
	counter *table.SAGroupCounter

	// nodeOf[j][code] is the active node of attribute j covering the code.
	nodeOf [][]*taxonomy.Node
	// sigIDs[j][code] is the stable id of nodeOf[j][code], the per-code view
	// of the cut the signature loop reads directly.
	sigIDs [][]int32
	// groups lists the rows of each cut-signature group, in first-row order;
	// rows within a group are in table order.
	groups [][]int
	// ids assigns a stable integer to every hierarchy node for signatures.
	ids map[*taxonomy.Node]int32
}

func newTDSState(t *table.Table, hs []*taxonomy.Hierarchy, l int) *tdsState {
	st := &tdsState{t: t, hs: hs, l: l, ids: make(map[*taxonomy.Node]int32), counter: t.SAGroupCounter()}
	id := int32(0)
	var walk func(n *taxonomy.Node)
	walk = func(n *taxonomy.Node) {
		st.ids[n] = id
		id++
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, h := range hs {
		walk(h.Root)
	}
	st.cols = make([][]int32, len(hs))
	st.nodeOf = make([][]*taxonomy.Node, len(hs))
	st.sigIDs = make([][]int32, len(hs))
	for j, h := range hs {
		st.cols[j] = t.Col(j)
		card := h.Attribute.Cardinality()
		nodes := make([]*taxonomy.Node, card)
		sig := make([]int32, card)
		rootID := st.ids[h.Root]
		for c := 0; c < card; c++ {
			nodes[c] = h.Root
			sig[c] = rootID
		}
		st.nodeOf[j] = nodes
		st.sigIDs[j] = sig
	}
	st.rebuildGroups()
	return st
}

// rebuildGroups regroups the rows by cut signature. Groups are collected in
// first-row order (deterministic, unlike ranging over a signature map) and
// the per-row key is assembled from the dense sigIDs so the scan never calls
// back into the table.
func (st *tdsState) rebuildGroups() {
	st.groups = table.GroupBySignature(st.t.Len(), func(r int, key []byte) []byte {
		for j := range st.hs {
			id := st.sigIDs[j][st.cols[j][r]]
			key = append(key, byte(id), byte(id>>8), byte(id>>16), ',')
		}
		return key
	})
}

// candidate is a potential specialization: replace node (attribute j) by its
// children.
type candidate struct {
	j    int
	node *taxonomy.Node
}

// activeInternalNodes enumerates the internal nodes currently on the cuts,
// in (attribute, code) order — deterministic, so gain ties in specializeBest
// always resolve the same way.
func (st *tdsState) activeInternalNodes() []candidate {
	var out []candidate
	for j := range st.hs {
		seen := make(map[*taxonomy.Node]bool)
		for _, n := range st.nodeOf[j] {
			if !n.IsLeaf() && !seen[n] {
				seen[n] = true
				out = append(out, candidate{j: j, node: n})
			}
		}
	}
	return out
}

// childOf returns the child of node covering code.
func childOf(node *taxonomy.Node, code int) *taxonomy.Node {
	for _, ch := range node.Children {
		for _, c := range ch.Codes {
			if c == code {
				return ch
			}
		}
	}
	return nil
}

// evaluate checks whether specializing cand keeps every affected group
// l-eligible and returns the information gain (reduction of log-width summed
// over affected tuples). ok is false if the specialization is invalid.
//
// The per-code child is resolved once into a dense index over the
// attribute's domain, the group rows are bucketed per child into reused
// slices, and eligibility runs on the shared dense counter — the scan over
// an affected group is pure array work.
func (st *tdsState) evaluate(cand candidate) (gain float64, ok bool) {
	l := st.l
	widthBefore := math.Log2(float64(cand.node.Width()))
	col := st.cols[cand.j]
	children := cand.node.Children

	// childIdx[code] = 1 + index of the child covering code, 0 when no child
	// covers it (which invalidates the specialization).
	childIdx := make([]int32, len(st.nodeOf[cand.j]))
	childGain := make([]float64, len(children))
	for ci, ch := range children {
		for _, c := range ch.Codes {
			childIdx[c] = int32(ci + 1)
		}
		childGain[ci] = widthBefore - math.Log2(float64(ch.Width()))
	}
	parts := make([][]int, len(children))

	for _, rows := range st.groups {
		// Fast skip: the group is affected only if its attribute-j node is
		// cand.node; every row in the group shares that node.
		if st.nodeOf[cand.j][col[rows[0]]] != cand.node {
			continue
		}
		// Split the group's rows by child and check eligibility of each part.
		for ci := range parts {
			parts[ci] = parts[ci][:0]
		}
		for _, r := range rows {
			ci := childIdx[col[r]]
			if ci == 0 {
				return 0, false
			}
			parts[ci-1] = append(parts[ci-1], r)
			gain += childGain[ci-1]
		}
		for _, part := range parts {
			if len(part) > 0 && !eligibility.IsEligibleGroup(st.counter, part, l) {
				return 0, false
			}
		}
	}
	return gain, true
}

// apply performs the specialization, updating the dense per-code node and
// signature-id views of the cut together.
func (st *tdsState) apply(cand candidate) {
	for _, code := range cand.node.Codes {
		ch := childOf(cand.node, code)
		st.nodeOf[cand.j][code] = ch
		st.sigIDs[cand.j][code] = st.ids[ch]
	}
	st.rebuildGroups()
}

// specializeBest evaluates all candidates, applies the best valid one and
// reports whether any specialization was applied.
func (st *tdsState) specializeBest() bool {
	best := candidate{j: -1}
	bestGain := math.Inf(-1)
	for _, cand := range st.activeInternalNodes() {
		gain, ok := st.evaluate(cand)
		if !ok {
			continue
		}
		if gain > bestGain {
			best, bestGain = cand, gain
		}
	}
	if best.j < 0 {
		return false
	}
	st.apply(best)
	return true
}

// generalized renders the current cut as a Generalized table. Cells are
// resolved once per (attribute, code), and the cut-signature groups already
// held in st.groups become the release's partition.
func (st *tdsState) generalized() (*generalize.Generalized, error) {
	cellOf := make([][]generalize.Cell, len(st.hs))
	for j := range st.hs {
		cellOf[j] = make([]generalize.Cell, len(st.nodeOf[j]))
		for code, n := range st.nodeOf[j] {
			if n == nil {
				continue // code absent from the data; never published
			}
			if n.IsLeaf() {
				cellOf[j][code] = generalize.Cell{Kind: generalize.CellExact, Value: n.Codes[0]}
			} else {
				cellOf[j][code] = generalize.Cell{Kind: generalize.CellSet, Set: append([]int(nil), n.Codes...)}
			}
		}
	}
	return generalize.Recode(st.t, st.groups, cellOf)
}
