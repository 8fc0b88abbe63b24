// Package core implements the paper's primary contribution: the TP
// three-phase approximation algorithm for l-diverse generalization via tuple
// minimization (Section 5), its inverted-list implementation (Section 5.5),
// and the TP+ hybrid that refines the residue set with a pluggable heuristic
// (Section 5.6 / 6.1).
package core

import (
	"iter"
	"slices"

	"ldiv/internal/parallel"
)

// saMultiset tracks a multiset of rows keyed by their sensitive value, with
// the height bookkeeping of Section 5.5: counts per SA value, count buckets
// per height, and a pillar pointer (the maximum height). Removing a row and
// adding a row of an already-present value are O(log distinct) (the binary
// search locating the value's row stack); the first add of a new value also
// shifts the sorted vals/rows arrays, O(distinct). Group multisets are
// bulk-built (buildGroupMultisets) so they never pay the shift, and the
// residue pays it once per distinct value it ever absorbs — cheap while the
// SA domain stays dictionary-sized, which is the density assumption the
// whole flat layout rests on.
//
// The implementation exploits the fact that SA values are dense dictionary
// codes in [0, domain): every map of the original inverted-list design is a
// flat slice. cnt is indexed by value code; vals lists the values ever
// present in ascending order (a value whose count drops to zero stays as a
// tombstone, so iteration order is stable and re-adding is cheap); rows holds
// one LIFO row stack per vals entry; heightCnt[h] counts the values with
// multiplicity exactly h, which makes the pillar pointer maintenance a pure
// array walk. The iteration helpers (forEach*, appendPillars, firstPillar)
// visit values in ascending code order without allocating, preserving the
// determinism the phases rely on.
type saMultiset struct {
	cnt       []int32   // value code -> multiplicity h(S, v); len = SA domain size
	vals      []int32   // values ever present, ascending; cnt may be 0 (tombstone)
	rows      [][]int32 // rows[i] = LIFO stack of row indices carrying vals[i]
	heightCnt []int32   // h -> number of values with multiplicity h; index 0 unused
	size      int
	maxH      int
}

// newSAMultiset returns an empty multiset over SA codes in [0, domain).
func newSAMultiset(domain int) *saMultiset {
	return &saMultiset{cnt: make([]int32, domain)}
}

// valIndex locates v in the sorted vals slice, returning its position and
// whether it is present (possibly as a tombstone). When absent, the position
// is where v would be inserted to keep vals ascending.
func (m *saMultiset) valIndex(v int32) (int, bool) {
	lo, hi := 0, len(m.vals)
	for lo < hi {
		//lint:ignore narrowconv overflow-safe midpoint idiom; lo and hi are in-range slice indices, so the uint sum fits int
		mid := int(uint(lo+hi) >> 1)
		if m.vals[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.vals) && m.vals[lo] == v
}

// shiftHeight moves one value from count bucket `from` to bucket `to`,
// growing the bucket array on demand. Bucket 0 is not tracked.
func (m *saMultiset) shiftHeight(from, to int) {
	if from > 0 {
		m.heightCnt[from]--
	}
	if to > 0 {
		for len(m.heightCnt) <= to {
			m.heightCnt = append(m.heightCnt, 0)
		}
		m.heightCnt[to]++
	}
}

// locate returns the position of v in vals, inserting v with an empty row
// stack at its sorted position if it was never present.
func (m *saMultiset) locate(v int) int {
	i, ok := m.valIndex(int32(v))
	if !ok {
		m.vals = slices.Insert(m.vals, i, int32(v))
		m.rows = slices.Insert(m.rows, i, nil)
	}
	return i
}

// raise counts c more rows carrying value v: multiplicity, height bucket,
// size and pillar pointer.
func (m *saMultiset) raise(v int, c int32) {
	old := m.cnt[v]
	m.cnt[v] += c
	m.shiftHeight(int(old), int(old+c))
	m.size += int(c)
	if int(old+c) > m.maxH {
		m.maxH = int(old + c)
	}
}

// add inserts row with sensitive value v.
func (m *saMultiset) add(v, row int) {
	i := m.locate(v)
	m.rows[i] = append(m.rows[i], int32(row))
	m.raise(v, 1)
}

// addAll inserts every row that rows yields, row r carrying SA code sa[r],
// and ends in the state the same sequence of add calls reaches. It locates
// each distinct value, sizes its row stack and moves its height once rather
// than once per row. rows is iterated twice.
func (m *saMultiset) addAll(rows iter.Seq[int], sa []int) {
	// per[v] counts the rows of value v to add, then holds v's position.
	per := make([]int32, len(m.cnt))
	for r := range rows {
		per[sa[r]]++
	}
	for v, c := range per {
		if c > 0 {
			i := m.locate(v)
			m.rows[i] = slices.Grow(m.rows[i], int(c))
			m.raise(v, c)
		}
	}
	for i, v := range m.vals {
		per[v] = int32(i)
	}
	for r := range rows {
		i := per[sa[r]]
		m.rows[i] = append(m.rows[i], int32(r))
	}
}

// removeOne removes one row with sensitive value v and returns its row index.
// It panics if no such row exists (a programming error in the algorithm).
func (m *saMultiset) removeOne(v int) int {
	i, ok := m.valIndex(int32(v))
	if !ok || len(m.rows[i]) == 0 {
		panic("core: removeOne from empty sensitive-value bucket")
	}
	stack := m.rows[i]
	row := stack[len(stack)-1]
	m.rows[i] = stack[:len(stack)-1]
	old := int(m.cnt[v])
	m.cnt[v]--
	m.shiftHeight(old, old-1)
	m.size--
	// The pillar pointer moves down monotonically overall; each step is O(1)
	// amortized because it only decreases when its count bucket empties.
	for m.maxH > 0 && m.heightCnt[m.maxH] == 0 {
		m.maxH--
	}
	return int(row)
}

// count returns h(·, v), the multiplicity of sensitive value v.
func (m *saMultiset) count(v int) int { return int(m.cnt[v]) }

// height returns h(·), the pillar height.
func (m *saMultiset) height() int { return m.maxH }

// len returns the multiset cardinality.
func (m *saMultiset) len() int { return m.size }

// isPillar reports whether v is at pillar height.
func (m *saMultiset) isPillar(v int) bool {
	return m.maxH > 0 && int(m.cnt[v]) == m.maxH
}

// eligible reports whether the multiset is l-eligible: |S| >= l * h(S).
func (m *saMultiset) eligible(l int) bool {
	return m.size >= l*m.maxH
}

// firstPillar returns the smallest sensitive value at pillar height, or -1
// for an empty multiset.
func (m *saMultiset) firstPillar() int {
	if m.maxH == 0 {
		return -1
	}
	for _, v := range m.vals {
		if int(m.cnt[v]) == m.maxH {
			return int(v)
		}
	}
	return -1
}

// appendPillars appends the sensitive values at pillar height to buf in
// ascending order and returns the extended slice. Callers pass buf[:0] of a
// reused buffer to snapshot the pillar set without allocating; snapshots are
// required before removal loops, which mutate the pillar set mid-iteration.
func (m *saMultiset) appendPillars(buf []int) []int {
	if m.maxH == 0 {
		return buf
	}
	for _, v := range m.vals {
		if int(m.cnt[v]) == m.maxH {
			buf = append(buf, int(v))
		}
	}
	return buf
}

// multisetChunkMin is the smallest number of groups worth handing to one
// worker in buildGroupMultisets: below it, goroutine handoff and the per-chunk
// domain-sized scratch cost more than the build itself.
const multisetChunkMin = 256

// chunkBounds splits 0..n-1 into at most WorkerCount(workers) contiguous
// chunks of at least minChunk items (except possibly when n < minChunk),
// returning k+1 ascending boundaries. Chunks are a deterministic function of
// (n, workers, minChunk) only, so any per-chunk state (scratch reuse, shard
// output order) is reproducible for a fixed worker count — and every
// chunk-parallel consumer in this package merges chunks in index order, which
// makes the merged output independent of the worker count too.
func chunkBounds(n, workers, minChunk int) []int {
	k := parallel.WorkerCount(workers)
	if maxK := (n + minChunk - 1) / minChunk; k > maxK {
		k = maxK
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	return bounds
}

// buildGroupMultisets bulk-builds one multiset per QI-group with all backing
// storage carved out of shared arenas: one allocation apiece for the dense
// count arrays, the sorted value lists, the row-stack headers, the row
// stacks, the height buckets, and the multiset structs themselves. Row stacks
// keep group order within a value, exactly as a sequence of add calls would.
// sa maps a row index to its SA code (the table's dense SAView, so the
// per-row lookup is one array load).
//
// Groups with fewer than minSize rows are not built: they all get one
// shared, empty multiset over the whole SA domain, and the count arena is
// sized for the built groups only. TP passes minSize = l,
// because phase one empties every group below l anyway (see phaseOne). The
// shared multiset is never written: nothing adds rows to a group multiset,
// and removeOne panics on an empty one before touching it.
//
// The build is two passes over contiguous group chunks, fanned across at most
// `workers` goroutines (parallel.Run; workers <= 1 or a single chunk runs
// inline). Pass one counts each group's histogram and measures its distinct
// values and pillar height; a serial prefix-sum then fixes every group's
// arena windows, so pass two can fill values, row stacks, and height buckets
// with no cross-chunk coordination. Each group's output depends only on its
// own rows, so the result is identical at every worker count.
func buildGroupMultisets(groups [][]int, domain int, sa []int, minSize, workers int) []*saMultiset {
	n := len(groups)
	out := make([]*saMultiset, n)
	if n == 0 {
		return out
	}
	// slot[gi] is group gi's index in the built-group arenas, -1 if skipped.
	slot := make([]int32, n)
	built := 0
	for gi, g := range groups {
		if len(g) < minSize {
			slot[gi] = -1
			continue
		}
		slot[gi] = int32(built)
		built++
	}
	empty := newSAMultiset(domain)
	structs := make([]saMultiset, built)
	cntArena := make([]int32, built*domain)
	distinct := make([]int32, built)
	maxC := make([]int32, built)
	bounds := chunkBounds(n, workers, multisetChunkMin)
	chunks := len(bounds) - 1

	// Pass 1: count histograms, measure distinct values and pillar heights.
	err := parallel.Run(workers, chunks, func(ci int) error {
		for gi := bounds[ci]; gi < bounds[ci+1]; gi++ {
			si := int(slot[gi])
			if si < 0 {
				out[gi] = empty
				continue
			}
			m := &structs[si]
			m.cnt = cntArena[si*domain : (si+1)*domain : (si+1)*domain]
			d, mx := int32(0), int32(0)
			for _, r := range groups[gi] {
				v := sa[r]
				if m.cnt[v] == 0 {
					d++
				}
				m.cnt[v]++
				if m.cnt[v] > mx {
					mx = m.cnt[v]
				}
			}
			distinct[si], maxC[si] = d, mx
		}
		return nil
	})
	if err != nil {
		panic(err) // only task panics reach here; re-raise them
	}

	// Serial prefix sums fix each built group's windows in the shared arenas.
	totalDistinct, totalHeights, totalRows := 0, 0, 0
	valsBase := make([]int, built)
	heightBase := make([]int, built)
	rowBase := make([]int, built)
	for gi, si := range slot {
		if si < 0 {
			continue
		}
		valsBase[si] = totalDistinct
		heightBase[si] = totalHeights
		rowBase[si] = totalRows
		totalDistinct += int(distinct[si])
		totalHeights += int(maxC[si]) + 1
		totalRows += len(groups[gi])
	}
	valsArena := make([]int32, totalDistinct)
	hdrArena := make([][]int32, totalDistinct)
	heightArena := make([]int32, totalHeights)
	rowArena := make([]int32, totalRows)

	// Pass 2: collect sorted values, carve per-value row windows, fill row
	// stacks in group order, and bucket heights. pos[v] is a per-chunk scratch
	// mapping a value to its index in the group's vals (or -1), replacing the
	// per-row binary search of the incremental build; it is reset by walking
	// the group's own vals, so its cost tracks distinct values, not domain.
	err = parallel.Run(workers, chunks, func(ci int) error {
		pos := make([]int32, domain)
		for i := range pos {
			pos[i] = -1
		}
		for gi := bounds[ci]; gi < bounds[ci+1]; gi++ {
			si := int(slot[gi])
			if si < 0 {
				continue
			}
			m := &structs[si]
			g := groups[gi]
			vb, d := valsBase[si], int(distinct[si])
			vals := valsArena[vb : vb : vb+d]
			for _, r := range g {
				v := sa[r]
				if pos[v] < 0 {
					pos[v] = 0
					vals = append(vals, int32(v))
				}
			}
			slices.Sort(vals)
			m.vals = vals
			hn := int(maxC[si]) + 1
			m.heightCnt = heightArena[heightBase[si] : heightBase[si]+hn : heightBase[si]+hn]
			m.rows = hdrArena[vb : vb+d : vb+d]
			base := rowBase[si]
			for i, v := range vals {
				c := int(m.cnt[v])
				// A zero-length, capacity-c window: the fill loop below
				// appends into the arena without ever reallocating.
				m.rows[i] = rowArena[base : base : base+c]
				m.heightCnt[c]++
				pos[v] = int32(i)
				base += c
			}
			for _, r := range g {
				i := pos[sa[r]]
				m.rows[i] = append(m.rows[i], int32(r))
			}
			for _, v := range vals {
				pos[v] = -1
			}
			m.size = len(g)
			m.maxH = int(maxC[si])
			out[gi] = m
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	return out
}
