package core

import (
	"errors"
	"fmt"

	"ldiv/internal/eligibility"
	"ldiv/internal/parallel"
	"ldiv/internal/table"
)

// ErrNotEligible is returned when the input table is not l-eligible, i.e.
// more than |T|/l of its tuples carry the same sensitive value, in which case
// no l-diverse generalization exists (Lemma 1).
var ErrNotEligible = errors.New("core: table is not l-eligible; no l-diverse generalization exists")

// Anonymizer runs the TP three-phase algorithm.
type Anonymizer struct {
	// L is the diversity parameter; it must be at least 2 to have any effect.
	L int
	// SkipPhaseTwo disables phase two, jumping straight from phase one to
	// phase three when the residue is not yet l-eligible. It exists only for
	// the ablation study of the design choices (phase two is what keeps h(R)
	// from growing); production callers should leave it false.
	SkipPhaseTwo bool
	// Workers bounds the worker pool the data-parallel stages fan out on (the
	// bulk multiset build and phase three's inverted-index rebuild). Values
	// below 1 mean one worker per CPU; 1 runs fully serial. Every stage
	// produces index-ordered output, so results are identical — byte for
	// byte — at every worker count.
	Workers int
}

// NewAnonymizer returns a TP anonymizer for the given l.
func NewAnonymizer(l int) *Anonymizer { return &Anonymizer{L: l} }

// Anonymize partitions t into QI-groups of identical QI values and runs the
// three phases of Section 5, returning the surviving groups and the residue
// set R. The returned partition is always l-diverse (each kept group and R
// are l-eligible), and |R| <= l * OPT where OPT is the minimum number of
// suppressed tuples (Theorem 3).
func (a *Anonymizer) Anonymize(t *table.Table) (*Result, error) {
	if a.L < 1 {
		return nil, fmt.Errorf("core: invalid l = %d", a.L)
	}
	groups := t.GroupByQI()
	return a.AnonymizeGroups(t, groups)
}

// AnonymizeGroups runs TP on a caller-supplied initial partition into
// QI-groups. The caller guarantees that rows inside one group share the same
// QI values (for example via Table.GroupByQI, or after a single-dimensional
// coarsening preprocess as discussed in Section 5.6).
func (a *Anonymizer) AnonymizeGroups(t *table.Table, groups [][]int) (*Result, error) {
	l := a.L
	if l < 1 {
		return nil, fmt.Errorf("core: invalid l = %d", l)
	}
	if !eligibility.IsEligibleCounts(t.SACounts(), l) {
		return nil, ErrNotEligible
	}
	st := newState(t, groups, l, a.Workers)

	// Phase 1: per group, shed pillar tuples until the group is l-eligible.
	st.phaseOne()
	if st.residueEligible() {
		return st.result(1), nil
	}

	// Phase 2: grow R with least-frequent alive SA values without raising h(R).
	if !a.SkipPhaseTwo {
		if st.phaseTwo() {
			return st.result(2), nil
		}
	}

	// Phase 3: rounds of greedy set-cover over conflicting pillars.
	st.phaseThree()
	return st.result(3), nil
}

// state carries the mutable data structures of Section 5.5.
type state struct {
	t       *table.Table
	l       int
	domain  int // SA code domain size; every multiset is dense over it
	workers int // bound for the data-parallel stages (Anonymizer.Workers)

	orig [][]int // the initial QI-groups, in their original row order
	sa   []int   // dense row -> SA code view of t

	groups  []*saMultiset // surviving content of each QI-group
	residue *saMultiset   // the set R of removed tuples

	phase          int
	removedByPhase [4]int
	phase3Rounds   int

	// Phase-three working set, allocated lazily on first use (most runs end
	// in phase one or two and never pay for it). pillarGroups is the inverted
	// group index: for each SA value that is currently a pillar of both some
	// group and of R, the ascending list of group indices having it as a
	// pillar. It is rebuilt once per round — group contents are immutable
	// during the greedy selection loop — so each greedy pick costs the size
	// of the posting lists it touches instead of a scan over every group.
	pillarGroups [][]int32     // value -> groups with that (R-conflicting) pillar
	filledVals   []int32       // values with non-empty pillarGroups entries
	alive        []int32       // non-empty group indices, ascending
	shards       []pillarShard // parallel rebuild shards; empty means serial
	overlap      []int32       // per-group |pillars(Q) ∩ remaining|, stamp-valid
	overlapStamp []int32       // stamp for which overlap[gi] is current
	pickedRound  []int32       // round in which the group was picked, if any
	touched      []int32       // groups with overlap > 0 in the current pick
	selection    []int         // groups picked by the current round's step 1
	remaining    []int         // pillars of R not yet covered by the selection
	stamp        int32

	pillarBuf []int // reusable snapshot buffer for pillar-shedding loops
}

func newState(t *table.Table, groups [][]int, l int, workers int) *state {
	domain := t.SADomainSize()
	sa := t.SAView()
	st := &state{t: t, l: l, domain: domain, workers: workers, orig: groups, sa: sa, residue: newSAMultiset(domain), phase: 1}
	st.groups = buildGroupMultisets(groups, domain, sa, l, workers)
	return st
}

// moveToResidue removes one tuple with sensitive value v from group gi and
// appends it to R.
func (st *state) moveToResidue(gi, v int) {
	row := st.groups[gi].removeOne(v)
	st.residue.add(v, row)
	st.removedByPhase[st.phase]++
}

func (st *state) residueEligible() bool { return st.residue.eligible(st.l) }

// groupEligible reports whether group gi is l-eligible.
func (st *state) groupEligible(gi int) bool { return st.groups[gi].eligible(st.l) }

// thin reports |Q| == l*h(Q). All groups are l-eligible after phase one, so a
// group is either thin or fat.
func (st *state) thin(gi int) bool {
	q := st.groups[gi]
	return q.len() == st.l*q.height()
}

// conflicting reports whether group gi has a pillar that is also a pillar of R.
func (st *state) conflicting(gi int) bool {
	q := st.groups[gi]
	if q.maxH == 0 || st.residue.maxH == 0 {
		return false
	}
	for _, v := range q.vals {
		if int(q.cnt[v]) == q.maxH && st.residue.isPillar(int(v)) {
			return true
		}
	}
	return false
}

// dead reports whether group gi is thin and conflicting (Section 5.3).
func (st *state) dead(gi int) bool { return st.thin(gi) && st.conflicting(gi) }

// --- Phase one -------------------------------------------------------------

func (st *state) phaseOne() {
	st.phase = 1
	// A non-empty group below l can never satisfy |Q| >= l*h(Q), so shedding
	// pillars would empty it. buildGroupMultisets left those groups empty;
	// their rows go to R in one bulk add.
	small := func(yield func(int) bool) {
		for _, g := range st.orig {
			if len(g) >= st.l {
				continue
			}
			for _, r := range g {
				if !yield(r) {
					return
				}
			}
		}
	}
	before := st.residue.size
	st.residue.addAll(small, st.sa)
	st.removedByPhase[1] += st.residue.size - before
	for gi, q := range st.groups {
		for !q.eligible(st.l) {
			// Remove one tuple from a pillar; ties broken by smallest value
			// for determinism (the end result is unique regardless, per the
			// paper's observation in Section 5.2).
			st.moveToResidue(gi, q.firstPillar())
		}
	}
}

// --- Phase two -------------------------------------------------------------

// candEntry is an entry of the candidate list C: sensitive value v is present
// in group gi (h(Q_gi, v) > 0) and gi was alive when the entry was filed.
type candEntry struct {
	gi int
	v  int
}

// phaseTwo returns true if the residue became l-eligible during the phase.
func (st *state) phaseTwo() bool {
	st.phase = 2

	// Candidate buckets indexed by h(R, v); entries are validated lazily when
	// popped (dead groups stay dead during phase two and h(Q, v) never grows,
	// so entries only need to be discarded or pushed to a higher bucket).
	// Buckets grow on demand: h(R, v) is bounded by the tuples phase two ever
	// moves, which is far below the table size the old n+2 preallocation
	// zeroed on every run.
	var buckets [][]candEntry
	push := func(e candEntry) {
		j := st.residue.count(e.v)
		for len(buckets) <= j {
			buckets = append(buckets, nil)
		}
		buckets[j] = append(buckets[j], e)
	}
	for gi, q := range st.groups {
		if q.len() == 0 || st.dead(gi) {
			continue
		}
		for _, v := range q.vals {
			if q.cnt[v] > 0 {
				push(candEntry{gi: gi, v: int(v)})
			}
		}
	}

	// len(buckets) can grow while the loop runs: re-filed entries land in
	// higher buckets, exactly as they landed in the fixed-size array before.
	for j := 0; j < len(buckets); j++ {
		for len(buckets[j]) > 0 {
			e := buckets[j][len(buckets[j])-1]
			buckets[j] = buckets[j][:len(buckets[j])-1]

			q := st.groups[e.gi]
			if q.count(e.v) == 0 || st.dead(e.gi) {
				continue // permanently invalid
			}
			if st.residue.count(e.v) != j {
				// h(R, v) has grown since the entry was filed; re-file it.
				push(e)
				continue
			}

			// One iteration of phase two on (Q, v).
			if !st.thin(e.gi) {
				st.moveToResidue(e.gi, e.v)
			} else {
				// Thin and alive, hence non-conflicting: shed one tuple from
				// each of Q's pillars.
				st.pillarBuf = q.appendPillars(st.pillarBuf[:0])
				for _, p := range st.pillarBuf {
					st.moveToResidue(e.gi, p)
				}
			}
			if st.residueEligible() {
				return true
			}
			// The entry may still be useful later; re-file it if the value is
			// still present and the group still alive.
			if q.count(e.v) > 0 && !st.dead(e.gi) {
				push(e)
			}
		}
	}
	return st.residueEligible()
}

// --- Phase three -----------------------------------------------------------

func (st *state) phaseThree() {
	st.phase = 3
	st.initPhaseThree()
	for !st.residueEligible() {
		st.phase3Rounds++
		if !st.phaseThreeRound() {
			// No progress is possible; this cannot happen on l-eligible
			// inputs (Lemma 7 guarantees the greedy cover always advances),
			// but guard against an infinite loop regardless.
			break
		}
	}
}

// pillarShardMin is the smallest contiguous span of groups worth handing to
// one shard of the phase-three index rebuild; below it the per-round goroutine
// handoff and merge copying dominate the scan itself.
const pillarShardMin = 1024

// pillarShard is one contiguous slice [lo, hi) of the group array in the
// parallel phase-three index rebuild. Each shard fills its own posting lists
// and alive set; the merge concatenates shards in index order, so the merged
// lists are ascending in group index exactly as the serial scan produces.
type pillarShard struct {
	lo, hi int
	lists  [][]int32 // value -> groups in [lo,hi) with that (R-conflicting) pillar
	filled []int32   // values with non-empty lists entries
	alive  []int32   // non-empty group indices in [lo,hi), ascending
}

// initPhaseThree allocates the phase-three working set: the inverted group
// index, the stamped per-group scratch arrays of the greedy cover, and — when
// the worker bound and the group count warrant it — the rebuild shards.
func (st *state) initPhaseThree() {
	st.pillarGroups = make([][]int32, st.domain)
	st.overlap = make([]int32, len(st.groups))
	st.overlapStamp = make([]int32, len(st.groups))
	st.pickedRound = make([]int32, len(st.groups))
	bounds := chunkBounds(len(st.groups), st.workers, pillarShardMin)
	if len(bounds) > 2 {
		st.shards = make([]pillarShard, len(bounds)-1)
		for si := range st.shards {
			st.shards[si] = pillarShard{lo: bounds[si], hi: bounds[si+1], lists: make([][]int32, st.domain)}
		}
	}
}

// buildPillarIndex rebuilds the inverted group index for the current round:
// pillarGroups[v] lists, in ascending order, the non-empty groups whose
// pillar set contains v, restricted to values v that are pillars of R (only
// those can appear in the uncovered set). alive is refreshed alongside.
//
// With shards configured, each shard scans its contiguous span of groups
// concurrently (group contents and R are immutable during the rebuild) and
// the results are merged in shard order, which keeps every posting list
// ascending in group index — the property the greedy tie-break depends on —
// independent of the worker count.
func (st *state) buildPillarIndex() {
	for _, v := range st.filledVals {
		st.pillarGroups[v] = st.pillarGroups[v][:0]
	}
	st.filledVals = st.filledVals[:0]
	st.alive = st.alive[:0]
	if len(st.shards) == 0 {
		for gi, q := range st.groups {
			if q.size == 0 {
				continue
			}
			st.alive = append(st.alive, int32(gi))
			for _, v := range q.vals {
				if int(q.cnt[v]) == q.maxH && st.residue.isPillar(int(v)) {
					if len(st.pillarGroups[v]) == 0 {
						st.filledVals = append(st.filledVals, v)
					}
					st.pillarGroups[v] = append(st.pillarGroups[v], int32(gi))
				}
			}
		}
		return
	}
	err := parallel.Run(st.workers, len(st.shards), func(si int) error {
		sh := &st.shards[si]
		for _, v := range sh.filled {
			sh.lists[v] = sh.lists[v][:0]
		}
		sh.filled = sh.filled[:0]
		sh.alive = sh.alive[:0]
		for gi := sh.lo; gi < sh.hi; gi++ {
			q := st.groups[gi]
			if q.size == 0 {
				continue
			}
			sh.alive = append(sh.alive, int32(gi))
			for _, v := range q.vals {
				if int(q.cnt[v]) == q.maxH && st.residue.isPillar(int(v)) {
					if len(sh.lists[v]) == 0 {
						sh.filled = append(sh.filled, v)
					}
					sh.lists[v] = append(sh.lists[v], int32(gi))
				}
			}
		}
		return nil
	})
	if err != nil {
		panic(err) // only task panics reach here; re-raise them
	}
	for si := range st.shards {
		sh := &st.shards[si]
		st.alive = append(st.alive, sh.alive...)
		for _, v := range sh.filled {
			if len(st.pillarGroups[v]) == 0 {
				st.filledVals = append(st.filledVals, v)
			}
			st.pillarGroups[v] = append(st.pillarGroups[v], sh.lists[v]...)
		}
	}
}

// phaseThreeRound performs one round of phase three (Section 5.4) — step 1
// selects groups until the set P of pillars of R they all conflict on cannot
// shrink further and sheds one tuple per pillar from each, step 2 eliminates
// every group that step 1 revived — and reports whether it removed at least
// one tuple.
func (st *state) phaseThreeRound() bool {
	progressed := false
	round := int32(st.phase3Rounds)

	// Step 1 (Section 5.4): starting from P = the pillar set of R, repeatedly
	// pick the group Q minimizing |C(Q) ∩ P| — the number of Q's pillars that
	// are also uncovered pillars of R — and replace P with P ∩ C(Q), until no
	// pick can shrink P. Ties go to the smallest group index for determinism;
	// the minimizing pick order is what the greedy set-cover analysis of
	// Lemma 7 charges against OPT. Each selected group then sheds one tuple
	// from each of its pillars, which preserves its l-eligibility.
	st.buildPillarIndex()
	st.remaining = st.residue.appendPillars(st.remaining[:0])
	st.selection = st.selection[:0]
	for len(st.remaining) > 0 {
		// Count |pillars(Q) ∩ P| per group by walking the posting lists of
		// the uncovered pillars; groups left uncounted have zero overlap.
		st.stamp++
		st.touched = st.touched[:0]
		for _, p := range st.remaining {
			for _, gi := range st.pillarGroups[p] {
				if st.pickedRound[gi] == round {
					continue
				}
				if st.overlapStamp[gi] != st.stamp {
					st.overlapStamp[gi] = st.stamp
					st.overlap[gi] = 0
					st.touched = append(st.touched, gi)
				}
				st.overlap[gi]++
			}
		}
		best, bestOverlap := -1, -1
		// A group the counting pass never touched has overlap 0, the global
		// minimum; the smallest such alive, unpicked index wins outright.
		for _, gi := range st.alive {
			if st.pickedRound[gi] == round || st.overlapStamp[gi] == st.stamp {
				continue
			}
			best, bestOverlap = int(gi), 0
			break
		}
		if best == -1 {
			for _, gi := range st.touched {
				o := int(st.overlap[gi])
				if bestOverlap == -1 || o < bestOverlap || (o == bestOverlap && int(gi) < best) {
					best, bestOverlap = int(gi), o
				}
			}
		}
		if best == -1 || bestOverlap >= len(st.remaining) {
			// No group can reduce the uncovered pillar set; bail out to the
			// caller's progress check.
			break
		}
		st.pickedRound[best] = round
		st.selection = append(st.selection, best)
		// P <- P ∩ C(Q): keep only the pillars of R that conflict with Q too.
		q := st.groups[best]
		w := 0
		for _, p := range st.remaining {
			if q.isPillar(p) {
				st.remaining[w] = p
				w++
			}
		}
		st.remaining = st.remaining[:w]
	}
	for _, gi := range st.selection {
		// Removing one tuple from each pillar is the atomic step that keeps
		// the group l-eligible; only check the residue once it completes.
		st.pillarBuf = st.groups[gi].appendPillars(st.pillarBuf[:0])
		for _, p := range st.pillarBuf {
			st.moveToResidue(gi, p)
			progressed = true
		}
		if st.residueEligible() {
			return true
		}
	}

	// Step 2 (Section 5.4): step 1 may have changed the pillars of R, so
	// groups that were dead (thin and conflicting) can be alive again;
	// re-eliminate every live group. A fat group sheds tuples whose SA
	// values are not pillars of R (least frequent in R first); a thin
	// non-conflicting group sheds one tuple from each of its pillars; a
	// group that becomes thin and conflicting is dead and is left alone.
	for gi, q := range st.groups {
		if q.len() == 0 {
			continue
		}
		for !st.dead(gi) && q.len() > 0 {
			if !st.thin(gi) {
				v, ok := st.nonPillarValue(gi)
				if !ok {
					break
				}
				st.moveToResidue(gi, v)
				progressed = true
			} else if st.conflicting(gi) {
				break // dead
			} else {
				st.pillarBuf = q.appendPillars(st.pillarBuf[:0])
				for _, p := range st.pillarBuf {
					st.moveToResidue(gi, p)
					progressed = true
				}
			}
			if st.residueEligible() {
				return true
			}
		}
	}
	return progressed
}

// nonPillarValue returns a sensitive value present in group gi that is not a
// pillar of R, preferring the least frequent one in R.
func (st *state) nonPillarValue(gi int) (int, bool) {
	q := st.groups[gi]
	best, bestCnt := -1, -1
	for _, v32 := range q.vals {
		if q.cnt[v32] == 0 {
			continue
		}
		v := int(v32)
		if st.residue.isPillar(v) {
			continue
		}
		c := st.residue.count(v)
		if best == -1 || c < bestCnt {
			best, bestCnt = v, c
		}
	}
	return best, best != -1
}

// --- Result assembly --------------------------------------------------------

// result assembles the Result in one sweep over the rows. Surviving rows are
// recovered from the original groups rather than the multisets' LIFO stacks:
// removeOne pops a value's most recently filed rows, so the survivors
// carrying value v are exactly the first h(Q, v) rows of that value in the
// group's original order. Each row's owner — a kept group, R, or none — goes
// into an n-length array, and assemble reads the groups and R back off it in
// row order.
func (st *state) result(phase int) *Result {
	res := &Result{L: st.l, TerminationPhase: phase, Phase3Rounds: st.phase3Rounds, RemovedByPhase: st.removedByPhase}
	owner := make([]int32, st.t.Len())
	kept := 0
	for _, q := range st.groups {
		if q.size > 0 {
			kept++
		}
	}
	sizes := make([]int, 0, kept)
	seen := make([]int32, st.domain)
	id := int32(0) // owner id of the next kept group: 1 + its index in sizes
	for gi, q := range st.groups {
		if q.size == 0 {
			continue
		}
		sizes = append(sizes, q.size)
		id++
		for _, r := range st.orig[gi] {
			if v := st.sa[r]; seen[v] < q.cnt[v] {
				seen[v]++
				owner[r] = id
			}
		}
		for _, v := range q.vals {
			seen[v] = 0
		}
	}
	for _, stack := range st.residue.rows {
		for _, r := range stack {
			owner[r] = residueOwner
		}
	}
	res.KeptGroups, res.Residue = assemble(owner, sizes, st.residue.size)
	if len(res.Residue) > 0 {
		res.ResidueGroups = [][]int{res.Residue}
	}
	return res
}
