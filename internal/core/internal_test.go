package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ldiv/internal/table"
)

// Allocating views of a multiset that only tests read; the phases iterate
// vals/cnt directly or snapshot with appendPillars.

// pillars returns the sensitive values at pillar height, ascending.
func (m *saMultiset) pillars() []int { return m.appendPillars(nil) }

// values returns the distinct sensitive values present, ascending.
func (m *saMultiset) values() []int {
	var out []int
	for _, v := range m.vals {
		if m.cnt[v] > 0 {
			out = append(out, int(v))
		}
	}
	return out
}

// allRows returns every row index currently in the multiset, grouped by
// ascending sensitive value, preserving insertion order within a value.
func (m *saMultiset) allRows() []int {
	out := make([]int, 0, m.size)
	for i, v := range m.vals {
		if m.cnt[v] == 0 {
			continue
		}
		for _, r := range m.rows[i] {
			out = append(out, int(r))
		}
	}
	return out
}

func TestSAMultisetBasics(t *testing.T) {
	m := newSAMultiset(8)
	if m.len() != 0 || m.height() != 0 || len(m.pillars()) != 0 {
		t.Fatal("empty multiset has wrong stats")
	}
	m.add(3, 100)
	m.add(3, 101)
	m.add(7, 102)
	if m.len() != 3 || m.height() != 2 || m.count(3) != 2 || m.count(7) != 1 {
		t.Fatalf("stats wrong: len=%d h=%d", m.len(), m.height())
	}
	if p := m.pillars(); len(p) != 1 || p[0] != 3 {
		t.Fatalf("pillars = %v", p)
	}
	if !m.isPillar(3) || m.isPillar(7) {
		t.Fatal("isPillar wrong")
	}
	row := m.removeOne(3)
	if row != 101 {
		t.Errorf("removeOne returned %d, want the most recently added row 101", row)
	}
	if m.height() != 1 || m.len() != 2 {
		t.Errorf("after removal: len=%d h=%d", m.len(), m.height())
	}
	if p := m.pillars(); len(p) != 2 {
		t.Errorf("pillars = %v, want both values", p)
	}
	if got := m.values(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("values = %v", got)
	}
	if len(m.allRows()) != 2 {
		t.Error("allRows wrong size")
	}
	if !m.eligible(2) {
		t.Error("2 rows with distinct values should be 2-eligible")
	}
}

// TestSAMultisetAddAllMatchesAdd checks the bulk add against the same rows
// added one at a time, into a multiset that already holds rows.
func TestSAMultisetAddAllMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		const domain = 12
		sa := make([]int, 60)
		for r := range sa {
			sa[r] = rng.Intn(domain)
		}
		bulk, one := newSAMultiset(domain), newSAMultiset(domain)
		pre := rng.Intn(20)
		for r := 0; r < pre; r++ {
			bulk.add(sa[r], r)
			one.add(sa[r], r)
		}
		rows := rng.Perm(len(sa) - pre)
		for i := range rows {
			rows[i] += pre
		}
		bulk.addAll(slices.Values(rows), sa)
		for _, r := range rows {
			one.add(sa[r], r)
		}
		if bulk.size != one.size || bulk.maxH != one.maxH ||
			!reflect.DeepEqual(bulk.cnt, one.cnt) || !reflect.DeepEqual(bulk.vals, one.vals) ||
			!reflect.DeepEqual(bulk.rows, one.rows) || !slices.Equal(bulk.heightCnt, one.heightCnt) {
			t.Fatalf("trial %d: bulk add differs from sequential adds", trial)
		}
	}
}

func TestSAMultisetRemovePanicsOnMissing(t *testing.T) {
	m := newSAMultiset(8)
	defer func() {
		if recover() == nil {
			t.Error("removeOne on an absent value should panic")
		}
	}()
	m.removeOne(5)
}

// TestSAMultisetQuick cross-checks the incremental bookkeeping against a
// naive recomputation under random add/remove sequences.
func TestSAMultisetQuick(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw%100) + 1
		m := newSAMultiset(5)
		ref := make(map[int]int)
		row := 0
		for i := 0; i < ops; i++ {
			if len(ref) == 0 || rng.Intn(3) != 0 {
				v := rng.Intn(5)
				m.add(v, row)
				ref[v]++
				row++
			} else {
				// Remove from a random present value.
				var present []int
				for v, c := range ref {
					if c > 0 {
						present = append(present, v)
					}
				}
				if len(present) == 0 {
					continue
				}
				v := present[rng.Intn(len(present))]
				m.removeOne(v)
				ref[v]--
				if ref[v] == 0 {
					delete(ref, v)
				}
			}
			// Compare against the naive statistics.
			size, maxH := 0, 0
			for _, c := range ref {
				size += c
				if c > maxH {
					maxH = c
				}
			}
			if m.len() != size || m.height() != maxH {
				return false
			}
			for v, c := range ref {
				if m.count(v) != c {
					return false
				}
			}
			for _, p := range m.pillars() {
				if ref[p] != maxH {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// buildState constructs a state directly from per-group and residue sensitive
// histograms (vector notation), bypassing phases 1-2, so the phase-three
// machinery can be exercised on the paper's example.
func buildState(groups [][]int, residue []int, l int) *state {
	domain := len(residue) + 2
	for _, hist := range groups {
		if len(hist)+2 > domain {
			domain = len(hist) + 2
		}
	}
	st := &state{l: l, domain: domain, residue: newSAMultiset(domain), phase: 3}
	row := 0
	for _, hist := range groups {
		m := newSAMultiset(domain)
		for v, cnt := range hist {
			for c := 0; c < cnt; c++ {
				m.add(v+1, row)
				row++
			}
		}
		st.groups = append(st.groups, m)
	}
	for v, cnt := range residue {
		for c := 0; c < cnt; c++ {
			st.residue.add(v+1, row)
			row++
		}
	}
	return st
}

// TestPhaseThreePaperExample drives phase three from the Section 5.4 example
// state: m=5, s=2, l=4, Q1=(3,1,2,3,3), Q2=(1,3,2,3,3), R=(4,4,4,0,0). The
// run must end with an l-eligible residue, within the bounds proven in
// Lemmas 8, 9 and Theorem 3.
func TestPhaseThreePaperExample(t *testing.T) {
	const l = 4
	st := buildState([][]int{
		{3, 1, 2, 3, 3},
		{1, 3, 2, 3, 3},
	}, []int{4, 4, 4, 0, 0}, l)

	hBefore := st.residue.height() // h(R¨) = 4
	if hBefore != 4 {
		t.Fatalf("precondition: h(R) = %d, want 4", hBefore)
	}
	totalBefore := st.residue.len() + st.groups[0].len() + st.groups[1].len()

	st.phaseThree()

	if !st.residueEligible() {
		t.Fatal("phase three ended with an ineligible residue")
	}
	if st.phase3Rounds < 1 || st.phase3Rounds > hBefore {
		t.Errorf("rounds = %d, want within [1, %d] (Lemma 9)", st.phase3Rounds, hBefore)
	}
	hAfter := st.residue.height()
	if hAfter > (l-1)*hBefore {
		t.Errorf("h(R) grew to %d, exceeding (l-1)*h(R¨) = %d", hAfter, (l-1)*hBefore)
	}
	if st.residue.len() > l*hAfter+l-1 {
		t.Errorf("|R| = %d exceeds l*h(R)+l-1 = %d", st.residue.len(), l*hAfter+l-1)
	}
	totalAfter := st.residue.len() + st.groups[0].len() + st.groups[1].len()
	if totalAfter != totalBefore {
		t.Errorf("tuples not conserved: %d -> %d", totalBefore, totalAfter)
	}
	// Every group must remain l-eligible.
	for gi, q := range st.groups {
		if !q.eligible(l) {
			t.Errorf("group %d is no longer %d-eligible", gi, l)
		}
	}
}

// TestPhaseOneLemma4 verifies Lemma 4 by exhaustion on small groups: after
// phase one, no l-eligible subset of the original group can exceed the kept
// heights on any sensitive value.
func TestPhaseOneLemma4(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		l := 2 + rng.Intn(3)
		// One QI-group with up to 8 tuples over up to 4 sensitive values.
		n := 1 + rng.Intn(8)
		sa := make([]int, n)
		for i := range sa {
			sa[i] = rng.Intn(4)
		}
		tb := table.NewBuilder(table.MustSchema(
			[]*table.Attribute{table.NewIntegerAttribute("A", 1)},
			table.NewIntegerAttribute("S", 4)), 0)
		for _, v := range sa {
			tb.MustAppendRow([]int{0}, v)
		}
		tbl := tb.Build()
		groups := tbl.GroupByQI()
		st := newState(tbl, groups, l, 1)
		st.phaseOne()
		kept := st.groups[0]

		// Enumerate all subsets of the group and check the dominance.
		for mask := 0; mask < (1 << uint(n)); mask++ {
			hist := make(map[int]int)
			size := 0
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					hist[sa[i]]++
					size++
				}
			}
			maxH := 0
			for _, c := range hist {
				if c > maxH {
					maxH = c
				}
			}
			if size < l*maxH {
				continue // not l-eligible
			}
			for v, c := range hist {
				if c > kept.count(v) {
					t.Fatalf("trial %d: l-eligible subset has h(Q',%d)=%d > h(Q.,%d)=%d",
						trial, v, c, v, kept.count(v))
				}
			}
		}
	}
}

// TestPhaseTwoPreservesHeight verifies Lemma 5 on random inputs: phase two
// never increases the residue's pillar height.
func TestPhaseTwoPreservesHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		l := 2 + rng.Intn(3)
		n := 5 + rng.Intn(40)
		d := 1 + rng.Intn(2)
		m := l + rng.Intn(3)
		qi := make([]*table.Attribute, d)
		for j := range qi {
			qi[j] = table.NewIntegerAttribute(string(rune('A'+j)), 3)
		}
		tb := table.NewBuilder(table.MustSchema(qi, table.NewIntegerAttribute("S", m)), 0)
		row := make([]int, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = rng.Intn(3)
			}
			tb.MustAppendRow(row, rng.Intn(m))
		}
		tbl := tb.Build()
		maxC := 0
		for _, c := range tbl.SACounts() {
			if c > maxC {
				maxC = c
			}
		}
		if n < l*maxC {
			continue // not l-eligible
		}
		st := newState(tbl, tbl.GroupByQI(), l, 1)
		st.phaseOne()
		if st.residueEligible() {
			continue
		}
		before := st.residue.height()
		st.phaseTwo()
		if st.residue.height() != before {
			t.Fatalf("trial %d: phase two changed h(R) from %d to %d", trial, before, st.residue.height())
		}
	}
}
