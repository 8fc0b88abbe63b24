package table

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Table is a microdata table T: n rows over a schema with d QI attributes and
// one sensitive attribute. QI values and SA values are stored as integer
// codes owned by the schema's attributes.
//
// The layout is columnar: the QI codes live in d contiguous []int32 column
// slices carved out of one shared arena allocation, next to the dense sa
// slice, which is always allocated together with the arena at its capacity.
// Scanning a column is a linear walk over one cache-friendly array —
// there is no per-row allocation and no pointer chase — which is what every
// algorithm layer (grouping, curve sorting, recoding, bucketization) leans
// on. Codes are dictionary indices and therefore always fit in an int32.
//
// Every table is dense: row i lives at index i of every column. Subset and
// Sample gather their rows into a new table that owns them. Project shares
// the original's column storage instead, so a projection is copy-free but
// rejects appends. Concurrent read-only use of a table and any number of
// projections of it is safe.
//
// The zero value is not usable; construct tables with New.
type Table struct {
	schema *Schema
	cols   [][]int32 // cols[j][i] = QI j code of row i
	sa     []int     // sa[i] = SA code of row i
	cap    int       // arena capacity in rows (owning tables only)
	shared bool      // columns are shared with another table; appends are rejected

	// groups memoizes GroupByQI; nil until the first call, cleared by push.
	// Subsets and projections are new Tables, so they never see their
	// parent's memo.
	groups atomic.Pointer[[][]int]
}

// New creates an empty table with the given schema.
func New(schema *Schema) *Table {
	return &Table{schema: schema, cols: make([][]int32, schema.Dimensions())}
}

// NewWithCapacity creates an empty table preallocated for the given number of
// rows: the column arena and the SA column are allocated once, so appending
// up to that many rows never reallocates.
func NewWithCapacity(schema *Schema, rows int) *Table {
	t := New(schema)
	if rows > 0 {
		t.grow(rows)
	}
	return t
}

// grow reallocates the column arena and the SA column to hold exactly rows
// rows, keeping the d QI columns contiguous inside one backing array. Each
// column is capped at its arena segment so appending to one can never bleed
// into the next.
func (t *Table) grow(rows int) {
	d := len(t.cols)
	arena := make([]int32, d*rows)
	n := len(t.sa)
	for j := range t.cols {
		seg := arena[j*rows : j*rows+n : (j+1)*rows]
		copy(seg, t.cols[j])
		t.cols[j] = seg
	}
	sa := make([]int, n, rows)
	copy(sa, t.sa)
	t.sa = sa
	t.cap = rows
}

// window returns an empty table over rows [at, at+rows) of t's reservation,
// which must hold them: appending to it writes t's columns in place, and it
// never grows. t's own length is not changed.
func (t *Table) window(at, rows int) *Table {
	w := &Table{schema: t.schema, cols: make([][]int32, len(t.cols)), cap: rows}
	for j, col := range t.cols {
		w.cols[j] = col[at : at : at+rows]
	}
	w.sa = t.sa[at : at : at+rows]
	return w
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns n, the number of rows.
func (t *Table) Len() int { return len(t.sa) }

// Dimensions returns d, the number of QI attributes.
func (t *Table) Dimensions() int { return t.schema.Dimensions() }

// push appends already-validated codes to the columns and drops the
// memoized grouping, which no longer covers every row.
func (t *Table) push(qi []int, sa int) {
	if t.groups.Load() != nil {
		t.groups.Store(nil)
	}
	n := len(t.sa)
	if n >= t.cap {
		t.grow(max(2*t.cap, 64))
	}
	for j := range t.cols {
		t.cols[j] = t.cols[j][:n+1]
		t.cols[j][n] = int32(qi[j])
	}
	t.sa = t.sa[:n+1]
	t.sa[n] = sa
}

// AppendRow adds a row given already-encoded QI codes and SA code. The QI
// codes are copied into the columns. Codes are validated against the
// attribute domains. Appending to a projection (any table sharing another
// table's columns) is an error.
func (t *Table) AppendRow(qi []int, sa int) error {
	if t.shared {
		return fmt.Errorf("table: cannot append to a projection, whose columns are shared")
	}
	d := t.schema.Dimensions()
	if len(qi) != d {
		return fmt.Errorf("table: row has %d QI values, schema has %d", len(qi), d)
	}
	for i, v := range qi {
		if v < 0 || v >= t.schema.QI(i).Cardinality() {
			return fmt.Errorf("table: QI value %d out of range for attribute %q (cardinality %d)",
				v, t.schema.QI(i).Name(), t.schema.QI(i).Cardinality())
		}
	}
	if sa < 0 || sa >= t.schema.SA().Cardinality() {
		return fmt.Errorf("table: SA value %d out of range for attribute %q (cardinality %d)",
			sa, t.schema.SA().Name(), t.schema.SA().Cardinality())
	}
	t.push(qi, sa)
	return nil
}

// MustAppendRow is AppendRow but panics on error; for tests and generators.
func (t *Table) MustAppendRow(qi []int, sa int) {
	if err := t.AppendRow(qi, sa); err != nil {
		panic(err)
	}
}

// AppendLabels adds a row given string labels, encoding (and extending the
// attribute domains) as needed.
func (t *Table) AppendLabels(qi []string, sa string) error {
	if t.shared {
		return fmt.Errorf("table: cannot append to a projection, whose columns are shared")
	}
	d := t.schema.Dimensions()
	if len(qi) != d {
		return fmt.Errorf("table: row has %d QI labels, schema has %d", len(qi), d)
	}
	var codes [16]int
	row := codes[:0]
	if d > len(codes) {
		row = make([]int, 0, d)
	}
	for i, lab := range qi {
		row = append(row, t.schema.QI(i).Encode(lab))
	}
	t.push(row, t.schema.SA().Encode(sa))
	return nil
}

// QIAt returns the code of the j-th QI attribute of row i. It is the scalar
// accessor of the columnar layout; column-oriented scans should prefer Col.
func (t *Table) QIAt(i, j int) int { return int(t.cols[j][i]) }

// Col returns QI column j as a []int32 of length Len. It is zero-copy: the
// returned slice aliases the column storage and must be treated as
// read-only. Hot scans hoist Col(j) out of their row loops so the inner loop
// is a linear walk over one contiguous array.
func (t *Table) Col(j int) []int32 {
	n := len(t.sa)
	return t.cols[j][:n:n]
}

// SAView returns the SA codes in row order. Like Col it is zero-copy and
// read-only.
func (t *Table) SAView() []int { return t.sa[:len(t.sa):len(t.sa)] }

// QIRows returns an allocation-free iterator over (row index, QI codes). The
// codes slice is reused between iterations and must not be retained.
func (t *Table) QIRows() iter.Seq2[int, []int32] {
	return func(yield func(int, []int32) bool) {
		buf := make([]int32, len(t.cols))
		n := t.Len()
		for i := 0; i < n; i++ {
			for j, col := range t.cols {
				buf[j] = col[i]
			}
			if !yield(i, buf) {
				return
			}
		}
	}
}

// SAValue returns the sensitive value code of row i.
func (t *Table) SAValue(i int) int { return t.sa[i] }

// QILabel returns the label of the j-th QI attribute of row i.
func (t *Table) QILabel(i, j int) string { return t.schema.QI(j).Label(t.QIAt(i, j)) }

// SALabel returns the sensitive label of row i.
func (t *Table) SALabel(i int) string { return t.schema.SA().Label(t.SAValue(i)) }

// SACardinality returns m, the number of distinct sensitive values that
// actually appear in the table (which may be smaller than the SA attribute's
// domain cardinality).
func (t *Table) SACardinality() int {
	seen := make([]bool, t.SADomainSize())
	m := 0
	n := t.Len()
	for i := 0; i < n; i++ {
		if v := t.SAValue(i); !seen[v] {
			seen[v] = true
			m++
		}
	}
	return m
}

// SADomainSize returns the size of the sensitive attribute's code domain.
// Every SA code stored in the table is in [0, SADomainSize): AppendRow
// validates codes against the domain and AppendLabels extends it. Dense
// consumers (the TP core, slice-based eligibility tests) size flat arrays
// with this bound instead of hashing codes.
func (t *Table) SADomainSize() int { return t.schema.SA().Cardinality() }

// SACounts returns the dense sensitive-value histogram: counts[v] is the
// number of rows whose SA code is v, with len(counts) == SADomainSize. It is
// the flat-array counterpart of SAHistogram.
func (t *Table) SACounts() []int {
	counts := make([]int, t.SADomainSize())
	for _, v := range t.sa {
		counts[v]++
	}
	return counts
}

// SAHistogram returns the frequency of each sensitive value code appearing in
// the table.
func (t *Table) SAHistogram() map[int]int {
	h := make(map[int]int)
	n := t.Len()
	for i := 0; i < n; i++ {
		h[t.SAValue(i)]++
	}
	return h
}

// SAGroupCounter histograms the sensitive values of row groups against one
// reused dense count array instead of a map per group. It is tied to the
// table (and SA domain) it was created for and is not safe for concurrent
// use; concurrent scans create one counter each.
type SAGroupCounter struct {
	t      *Table
	counts []int32
	vals   []int32
}

// SAGroupCounter returns a counter sized for the table's SA domain.
func (t *Table) SAGroupCounter() *SAGroupCounter {
	return &SAGroupCounter{t: t, counts: make([]int32, t.SADomainSize())}
}

// Count histograms the given rows: counts[v] is the frequency of SA code v
// and vals lists the distinct codes present, in first-appearance order.
// counts entries outside vals are zero. Both slices are reused by (and only
// valid until) the next Count call.
func (c *SAGroupCounter) Count(rows []int) (counts []int32, vals []int32) {
	for _, v := range c.vals {
		c.counts[v] = 0
	}
	c.vals = c.vals[:0]
	sa := c.t.sa
	for _, r := range rows {
		v := sa[r]
		if c.counts[v] == 0 {
			c.vals = append(c.vals, int32(v))
		}
		c.counts[v]++
	}
	return c.counts, c.vals
}

// MaxCount histograms the given rows and returns only the largest frequency
// h(S) (0 for an empty group), for eligibility checks that do not need the
// full histogram.
func (c *SAGroupCounter) MaxCount(rows []int) int {
	counts, vals := c.Count(rows)
	max := int32(0)
	for _, v := range vals {
		if counts[v] > max {
			max = counts[v]
		}
	}
	return int(max)
}

// QIKey returns a string key identifying the exact combination of QI values
// of row i. Rows with equal keys have identical QI values on every attribute.
func (t *Table) QIKey(i int) string {
	b := make([]byte, 0, 4*len(t.cols))
	for j, col := range t.cols {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(col[i]), 10)
	}
	return string(b)
}

// GroupByQI partitions row indices into groups of identical QI values. The
// groups are returned in a deterministic order (by the QI key of their first
// row in lexicographic order), and rows within a group preserve table order.
//
// The grouping is computed once per table and memoized: later calls, from
// any goroutine, return the same slices until an append clears the memo
// (concurrent first calls may each compute an identical copy). Callers must
// treat the groups as read-only — no element writes, no in-place sorting, no
// appends — because every other caller of the same table shares them
// (ldivlint's viewsafety analyzer flags such writes).
func (t *Table) GroupByQI() [][]int {
	if g := t.groups.Load(); g != nil {
		return *g
	}
	g := t.groupByQI()
	t.groups.Store(&g)
	return g
}

// groupByQI computes the grouping GroupByQI memoizes.
//
// Grouping is one stable sort of the row indices by their QI rank vectors;
// no key strings are ever materialized. Each attribute's codes map to their
// decimal-string rank (tables cached per attribute — see decimalRankTable),
// so comparing rank vectors attribute by attribute is exactly the
// lexicographic QI-key order (the ',' separator sorts below every digit,
// which is the same shorter-number-first rule decimalRanks follows). The
// ranks of a row are packed in column order, the first attribute highest,
// into as few 64-bit words as the schema needs (one for every SAL/OCC
// shape), and radixSortPairs sorts the rows, starting from table order, by
// each word in turn, least significant word first. Every pass is stable, so
// the rows of a group keep table order. Every group is a capacity-capped
// sub-slice of the single sorted row array, so appending to one cannot bleed
// into its neighbor.
func (t *Table) groupByQI() [][]int {
	n := t.Len()
	if n == 0 {
		return nil
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	keys := make([]uint64, n)
	var order []int // nil until the first sort moves rows out of table order
	used := uint(0)
	// Pack attributes from the last one up; when the next one does not fit
	// the word, sort by the word and start the next one.
	for j := t.schema.Dimensions() - 1; j >= 0; j-- {
		a := t.schema.QI(j)
		bits := uint(bitsFor(a.Cardinality()))
		if used+bits > 64 {
			keys, rows = radixSortPairs(keys, rows, used)
			order, used = rows, 0
			clear(keys)
		}
		t.packRank(keys, order, j, a.decimalRankTable(), used)
		used += bits
	}
	keys, rows = radixSortPairs(keys, rows, used)
	if order != nil {
		// keys holds only the leading word: renumber them as runs of
		// identical QI vectors so the cut sees every attribute.
		run := uint64(0)
		for i := 1; i < n; i++ {
			pa, pb := rows[i-1], rows[i]
			for _, col := range t.cols {
				if col[pa] != col[pb] {
					run++
					break
				}
			}
			keys[i] = run
		}
		keys[0] = 0
	}
	return cutRuns(rows, keys)
}

// packRank ors attribute j's decimal rank (rank[code]) of row order[i],
// shifted left by shift, into keys[i]; order == nil means table order.
func (t *Table) packRank(keys []uint64, order []int, j int, rank []int, shift uint) {
	col := t.cols[j]
	if order != nil {
		for i, r := range order {
			keys[i] |= uint64(rank[col[r]]) << shift
		}
		return
	}
	for i := range keys {
		keys[i] |= uint64(rank[col[i]]) << shift
	}
}

// cutRuns cuts sorted rows into groups, one per run of equal keys (keys in
// sorted position order). A counting pass sizes the result exactly, so the
// group headers are allocated once. Groups are capacity-capped sub-slices of
// rows, so appending to one cannot bleed into its neighbor.
func cutRuns(rows []int, keys []uint64) [][]int {
	n := len(rows)
	k := 1
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			k++
		}
	}
	out := make([][]int, 0, k)
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || keys[i] != keys[start] {
			out = append(out, rows[start:i:i])
			start = i
		}
	}
	return out
}

// GroupBySignature partitions the row indices 0..n-1 into groups of equal
// byte signatures: appendKey appends row i's signature to key (a buffer
// reused across rows) and returns it. Groups are ordered by first
// appearance and rows within a group preserve index order — the shared
// deterministic grouping primitive of the recoding algorithms (TDS cut
// signatures, Incognito level signatures).
func GroupBySignature(n int, appendKey func(i int, key []byte) []byte) [][]int {
	byKey := make(map[string]int)
	var groups [][]int
	var key []byte
	for i := 0; i < n; i++ {
		key = appendKey(i, key[:0])
		gi, ok := byKey[string(key)]
		if !ok {
			gi = len(groups)
			byKey[string(key)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups
}

// decimalRanks returns rank[code] = position of code among 0..c-1 ordered by
// decimal representation ("10" before "2", "9" before "90"). That order is a
// preorder walk of the decimal digit trie: "0", then "1", "10", "100", ...,
// "11", ..., up to "9", ..., so it takes O(c) steps and no comparison sort.
func decimalRanks(c int) []int {
	rank := make([]int, c)
	v := 1 // rank[0] = 0: no other representation starts with '0'
	for pos := 1; pos < c; pos++ {
		rank[v] = pos
		if v*10 < c {
			v *= 10 // descend to the first child
			continue
		}
		for v%10 == 9 || v+1 >= c {
			v /= 10 // climb past last children and the end of the domain
		}
		v++ // next sibling
	}
	return rank
}

// bitsFor returns how many bits hold any value in [0, c).
func bitsFor(c int) int {
	b := 1
	for c > 1<<b {
		b++
	}
	return b
}

// Project returns a zero-copy projection containing only the QI columns
// given by cols (in that order) plus the sensitive attribute. The projection
// shares the original table's column storage, so no cell is copied, and it
// rejects appends. Row order is preserved and attribute dictionaries are
// shared with the original table.
func (t *Table) Project(cols []int) (*Table, error) {
	ps, err := t.schema.Project(cols)
	if err != nil {
		return nil, err
	}
	n := len(t.sa)
	p := &Table{schema: ps, cols: make([][]int32, len(cols)), sa: t.sa[:n:n], shared: true}
	for j, c := range cols {
		p.cols[j] = t.cols[c][:n:n]
	}
	return p, nil
}

// ProjectNames is Project with attribute names instead of column indices.
func (t *Table) ProjectNames(names []string) (*Table, error) {
	cols := make([]int, len(names))
	for i, n := range names {
		c := t.schema.QIIndex(n)
		if c < 0 {
			return nil, fmt.Errorf("table: unknown QI attribute %q", n)
		}
		cols[i] = c
	}
	return t.Project(cols)
}

// Sample returns a new table of k rows drawn without replacement using rng,
// in table order. If k >= n it holds every row. Like Subset, it copies the
// codes and shares the schema.
func (t *Table) Sample(k int, rng *rand.Rand) *Table {
	n := t.Len()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return t.Subset(perm)
}

// Subset returns a new dense table holding the given rows, in the given
// order. The schema is shared and the codes are copied, so the result owns
// its rows and accepts appends. It panics if a row index is out of range,
// like the indexing it replaces.
func (t *Table) Subset(rows []int) *Table {
	n := t.Len()
	for _, r := range rows {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("table: Subset row %d out of range [0,%d)", r, n))
		}
	}
	k := len(rows)
	out := New(t.schema)
	if k == 0 {
		return out
	}
	out.grow(k)
	for j, src := range t.cols {
		dst := out.cols[j][:k]
		for i, r := range rows {
			dst[i] = src[r]
		}
		out.cols[j] = dst
	}
	out.sa = out.sa[:k]
	for i, r := range rows {
		out.sa[i] = t.sa[r]
	}
	return out
}

// Clone returns a deep copy of the table sharing the same schema. The copy
// owns its rows and accepts appends, even when t is a projection.
func (t *Table) Clone() *Table {
	n := t.Len()
	out := New(t.schema)
	if n == 0 {
		return out
	}
	out.grow(n)
	for j, src := range t.cols {
		out.cols[j] = out.cols[j][:n]
		copy(out.cols[j], src[:n])
	}
	out.sa = append(out.sa, t.sa...)
	return out
}

// Equal reports whether two tables have the same length, the same
// dimensionality, and identical codes in every cell.
func (t *Table) Equal(o *Table) bool {
	if t.Len() != o.Len() || t.Dimensions() != o.Dimensions() {
		return false
	}
	n := t.Len()
	for i := 0; i < n; i++ {
		if t.SAValue(i) != o.SAValue(i) {
			return false
		}
	}
	for j := range t.cols {
		if !slices.Equal(t.Col(j), o.Col(j)) {
			return false
		}
	}
	return true
}

// String renders a small table for debugging; large tables are truncated.
func (t *Table) String() string {
	var b strings.Builder
	names := append(t.schema.QINames(), t.schema.SA().Name())
	b.WriteString(strings.Join(names, "\t"))
	b.WriteByte('\n')
	limit := t.Len()
	const maxRows = 50
	if limit > maxRows {
		limit = maxRows
	}
	for i := 0; i < limit; i++ {
		for j := 0; j < t.Dimensions(); j++ {
			b.WriteString(t.QILabel(i, j))
			b.WriteByte('\t')
		}
		b.WriteString(t.SALabel(i))
		b.WriteByte('\n')
	}
	if t.Len() > maxRows {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.Len()-maxRows)
	}
	return b.String()
}
