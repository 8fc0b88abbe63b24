package table

import (
	"fmt"
	"iter"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Table is a microdata table T: n rows over a schema with d QI attributes and
// one sensitive attribute. QI values and SA values are stored as integer
// codes owned by the schema's attributes.
//
// The layout is columnar: the QI codes live in d contiguous []int32 column
// slices carved out of one shared arena allocation, next to the dense sa
// slice. Scanning a column is a linear walk over one cache-friendly array —
// there is no per-row allocation and no pointer chase — which is what every
// algorithm layer (grouping, curve sorting, recoding, bucketization) leans
// on. Codes are dictionary indices and therefore always fit in an int32.
//
// A Table is either dense (it owns its rows: row i lives at physical index i
// of every column) or a zero-copy view: it shares another table's columns and
// carries a row-index slice mapping logical to physical rows. Subset, Sample
// and Project return views; views satisfy the whole read API but reject
// appends, as does any table whose columns are shared. Concurrent read-only
// use of a table and any number of views over it is safe.
//
// The zero value is not usable; construct tables with New.
type Table struct {
	schema *Schema
	cols   [][]int32 // cols[j][p] = QI j code of physical row p
	sa     []int     // sa[p] = SA code of physical row p
	rows   []int32   // view indirection: logical i -> physical rows[i]; nil = dense
	cap    int       // arena capacity in rows (owning tables only)
	shared bool      // columns are shared with another table; appends are rejected
}

// New creates an empty table with the given schema.
func New(schema *Schema) *Table {
	return &Table{schema: schema, cols: make([][]int32, schema.Dimensions())}
}

// NewWithCapacity creates an empty table preallocated for the given number of
// rows: the column arena is allocated once, so appending up to that many rows
// never reallocates.
func NewWithCapacity(schema *Schema, rows int) *Table {
	t := New(schema)
	if rows > 0 {
		t.grow(rows)
		t.sa = make([]int, 0, rows)
	}
	return t
}

// grow reallocates the column arena to hold at least minRows rows, keeping
// the d columns contiguous inside one backing array. Each column is capped at
// its arena segment so appending to one can never bleed into the next.
func (t *Table) grow(minRows int) {
	d := len(t.cols)
	newCap := t.cap * 2
	if newCap < 64 {
		newCap = 64
	}
	if newCap < minRows {
		newCap = minRows
	}
	arena := make([]int32, d*newCap)
	n := len(t.sa)
	for j := range t.cols {
		seg := arena[j*newCap : j*newCap+n : (j+1)*newCap]
		copy(seg, t.cols[j])
		t.cols[j] = seg
	}
	t.cap = newCap
}

// view wraps the table's columns with a logical row-index slice. The column
// headers are copied and capped at the current length: the parent mutates
// its own headers on every append (and re-points them on arena growth), so
// sharing the header array would let those writes race with view reads.
// With pinned headers the view only ever touches rows that existed at
// creation, which are never mutated again.
func (t *Table) view(rows []int32) *Table {
	n := len(t.sa)
	cols := make([][]int32, len(t.cols))
	for j, c := range t.cols {
		cols[j] = c[:n:n]
	}
	return &Table{schema: t.schema, cols: cols, sa: t.sa[:n:n], rows: rows, shared: true}
}

// physical maps a logical row index to its physical index in the columns.
func (t *Table) physical(i int) int {
	if t.rows != nil {
		return int(t.rows[i])
	}
	return i
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len returns n, the number of rows.
func (t *Table) Len() int {
	if t.rows != nil {
		return len(t.rows)
	}
	return len(t.sa)
}

// Dimensions returns d, the number of QI attributes.
func (t *Table) Dimensions() int { return t.schema.Dimensions() }

// IsView reports whether the table is a zero-copy view over another table's
// rows (as returned by Subset and Sample). Views share storage with their
// parent and reject appends.
func (t *Table) IsView() bool { return t.rows != nil }

// push appends already-validated codes to the columns.
func (t *Table) push(qi []int, sa int) {
	n := len(t.sa)
	if n >= t.cap {
		t.grow(n + 1)
	}
	for j := range t.cols {
		t.cols[j] = t.cols[j][:n+1]
		t.cols[j][n] = int32(qi[j])
	}
	t.sa = append(t.sa, sa)
}

// AppendRow adds a row given already-encoded QI codes and SA code. The QI
// codes are copied into the columns. Codes are validated against the
// attribute domains. Appending to a view (or to any table sharing another
// table's columns) is an error.
func (t *Table) AppendRow(qi []int, sa int) error {
	if t.shared {
		return fmt.Errorf("table: cannot append to a view or a table with shared columns")
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
		return fmt.Errorf("table: cannot append to a view or a table with shared columns")
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
func (t *Table) QIAt(i, j int) int {
	if t.rows != nil {
		i = int(t.rows[i])
	}
	return int(t.cols[j][i])
}

// Col returns QI column j in logical row order as a dense []int32 of length
// Len. For a table that owns its rows it is zero-copy — the returned slice
// aliases the column storage and must be treated as read-only — while views
// gather a fresh copy. Hot scans hoist Col(j) out of their row loops so the
// inner loop is a linear walk over one contiguous array.
func (t *Table) Col(j int) []int32 {
	if t.rows == nil {
		n := len(t.sa)
		return t.cols[j][:n:n]
	}
	col := t.cols[j]
	out := make([]int32, len(t.rows))
	for i, p := range t.rows {
		out[i] = col[p]
	}
	return out
}

// SAView returns the SA codes in logical row order. Like Col it is zero-copy
// (and read-only) for tables that own their rows, gathered for views.
func (t *Table) SAView() []int {
	if t.rows == nil {
		return t.sa[:len(t.sa):len(t.sa)]
	}
	out := make([]int, len(t.rows))
	for i, p := range t.rows {
		out[i] = t.sa[p]
	}
	return out
}

// QIRows returns an allocation-free iterator over (row index, QI codes). The
// codes slice is reused between iterations and must not be retained.
func (t *Table) QIRows() iter.Seq2[int, []int32] {
	return func(yield func(int, []int32) bool) {
		buf := make([]int32, len(t.cols))
		n := t.Len()
		for i := 0; i < n; i++ {
			p := i
			if t.rows != nil {
				p = int(t.rows[i])
			}
			for j, col := range t.cols {
				buf[j] = col[p]
			}
			if !yield(i, buf) {
				return
			}
		}
	}
}

// SAValue returns the sensitive value code of row i.
func (t *Table) SAValue(i int) int { return t.sa[t.physical(i)] }

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
	if t.rows == nil {
		for _, v := range t.sa {
			counts[v]++
		}
	} else {
		for _, p := range t.rows {
			counts[t.sa[p]]++
		}
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
	t := c.t
	if t.rows == nil {
		for _, r := range rows {
			v := t.sa[r]
			if c.counts[v] == 0 {
				c.vals = append(c.vals, int32(v))
			}
			c.counts[v]++
		}
	} else {
		for _, r := range rows {
			v := t.sa[t.rows[r]]
			if c.counts[v] == 0 {
				c.vals = append(c.vals, int32(v))
			}
			c.counts[v]++
		}
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
	p := t.physical(i)
	b := make([]byte, 0, 4*len(t.cols))
	for j, col := range t.cols {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(col[p]), 10)
	}
	return string(b)
}

// GroupByQI partitions row indices into groups of identical QI values. The
// groups are returned in a deterministic order (by the QI key of their first
// row in lexicographic order), and rows within a group preserve table order.
//
// Grouping is sort-based and allocation-lean instead of string-keyed: each
// attribute's codes are dictionary-encoded to their decimal-string rank
// (tables cached per attribute — see decimalRankTable), the per-row ranks are
// packed into one integer sort key built column by column (one linear pass
// per attribute over its contiguous column), and every group is a sub-slice
// of the single sorted index array. When the ranks and the row index together
// fit one word, the row index is packed into the key's low bits and the whole
// array is sorted comparison-free — an LSD radix sort over the used key bits
// at n >= radixMinN, slices.Sort below it. No key strings are ever
// materialized, and groups have capped capacity, so appending to one cannot
// bleed into its neighbor.
func (t *Table) GroupByQI() [][]int {
	n := t.Len()
	if n == 0 {
		return nil
	}
	d := t.schema.Dimensions()
	// rank[j][code] positions code within attribute j's domain ordered by
	// decimal strings; comparing ranks attribute by attribute is exactly the
	// lexicographic QI-key order (the ',' separator sorts below every digit,
	// which is the same shorter-number-first rule compareDecimal applies).
	ranks := make([][]int, d)
	shift := make([]uint, d)
	totalBits := uint(0)
	for j := 0; j < d; j++ {
		a := t.schema.QI(j)
		ranks[j] = a.decimalRankTable()
		shift[j] = uint(bitsFor(a.Cardinality()))
		totalBits += shift[j]
	}
	rowBits := uint(bitsFor(n))

	if totalBits+rowBits <= 64 {
		// Fast path: QI rank key and row index share one uint64, so equal-key
		// rows tie-break on table order for free and the sort needs no
		// comparison function.
		keys := make([]uint64, n)
		t.buildRankKeys(keys, ranks, shift)
		for i := range keys {
			keys[i] = keys[i]<<rowBits | uint64(i)
		}
		if n >= radixMinN {
			radixSortUint64(keys, totalBits+rowBits)
		} else {
			slices.Sort(keys)
		}
		rowMask := uint64(1)<<rowBits - 1
		rows := make([]int, n)
		for i, k := range keys {
			rows[i] = int(k & rowMask)
		}
		out := make([][]int, 0, 16)
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || keys[i]>>rowBits != keys[start]>>rowBits {
				out = append(out, rows[start:i:i])
				start = i
			}
		}
		return out
	}

	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	if totalBits <= 64 {
		// The rank key fits one word but the row index does not; sort with an
		// explicit table-order tie-break.
		keys := make([]uint64, n)
		t.buildRankKeys(keys, ranks, shift)
		if n >= radixMinN {
			// Stable radix on ascending row seeds: equal keys keep table order.
			radixSortRowsByKey(rows, keys, totalBits)
		} else {
			slices.SortFunc(rows, func(a, b int) int {
				switch {
				case keys[a] < keys[b]:
					return -1
				case keys[a] > keys[b]:
					return 1
				default:
					return a - b // table order within a group
				}
			})
		}
		out := make([][]int, 0, 16)
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || keys[rows[i]] != keys[rows[start]] {
				out = append(out, rows[start:i:i])
				start = i
			}
		}
		return out
	}

	// Wide schemas whose ranks do not fit one word: same order, rank
	// comparison per attribute.
	phys := t.rows
	if phys == nil {
		phys = make([]int32, n)
		for i := range phys {
			phys[i] = int32(i)
		}
	}
	cmp := func(a, b int) int {
		pa, pb := phys[a], phys[b]
		for j := 0; j < d; j++ {
			x, y := ranks[j][t.cols[j][pa]], ranks[j][t.cols[j][pb]]
			if x != y {
				if x < y {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	slices.SortStableFunc(rows, cmp)
	out := make([][]int, 0, 16)
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || cmp(rows[i], rows[start]) != 0 {
			out = append(out, rows[start:i:i])
			start = i
		}
	}
	return out
}

// buildRankKeys accumulates the packed decimal-rank key of every logical row
// into keys (len == Len), one linear pass per column: keys[i] ends up as the
// per-attribute ranks of row i shifted and or-ed together in column order.
// It is shared by both one-word GroupByQI paths.
func (t *Table) buildRankKeys(keys []uint64, ranks [][]int, shift []uint) {
	n := len(keys)
	for j := range t.cols {
		col, rk, s := t.cols[j], ranks[j], shift[j]
		if t.rows == nil {
			for i := 0; i < n; i++ {
				keys[i] = keys[i]<<s | uint64(rk[col[i]])
			}
		} else {
			for i, p := range t.rows {
				keys[i] = keys[i]<<s | uint64(rk[col[p]])
			}
		}
	}
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
// decimal representation ("10" before "2", "9" before "90").
func decimalRanks(c int) []int {
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, compareDecimal)
	rank := make([]int, c)
	for pos, code := range order {
		rank[code] = pos
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

// compareDecimal compares the decimal representations of two non-negative
// integers lexicographically (e.g. 10 sorts before 2, 9 before 90) using
// only integer arithmetic.
func compareDecimal(a, b int) int {
	if a == b {
		return 0
	}
	da, db := decimalDigits(a), decimalDigits(b)
	sa, sb := a, b
	for i := da; i < db; i++ {
		sa *= 10
	}
	for i := db; i < da; i++ {
		sb *= 10
	}
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	case da < db:
		return -1 // equal after scaling: a's representation prefixes b's
	default:
		return 1
	}
}

func decimalDigits(v int) int {
	d := 1
	for v >= 10 {
		v /= 10
		d++
	}
	return d
}

// Project returns a zero-copy projection containing only the QI columns
// given by cols (in that order) plus the sensitive attribute. The projection
// shares the original table's column storage (and, for views, the row-index
// slice), so no cell is copied; it is read-only like every sharing table.
// Row order is preserved and attribute dictionaries are shared with the
// original table.
func (t *Table) Project(cols []int) (*Table, error) {
	ps, err := t.schema.Project(cols)
	if err != nil {
		return nil, err
	}
	n := len(t.sa)
	p := &Table{schema: ps, cols: make([][]int32, len(cols)), sa: t.sa[:n:n], rows: t.rows, shared: true}
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

// Sample returns a view of k rows drawn without replacement using rng. If
// k >= n the view covers the whole table. No cells are copied; the schema and
// column storage are shared.
func (t *Table) Sample(k int, rng *rand.Rand) *Table {
	n := t.Len()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	sort.Ints(perm)
	return t.Subset(perm)
}

// Subset returns a zero-copy view containing only the given row indices, in
// the given order. The schema and column storage are shared; only the row
// index slice is allocated. It panics if a row index is out of range, like
// the indexing it replaces.
func (t *Table) Subset(rows []int) *Table {
	n := t.Len()
	idx := make([]int32, len(rows))
	for i, r := range rows {
		if r < 0 || r >= n {
			panic(fmt.Sprintf("table: Subset row %d out of range [0,%d)", r, n))
		}
		if t.rows != nil {
			idx[i] = t.rows[r]
		} else {
			idx[i] = int32(r)
		}
	}
	return t.view(idx)
}

// Clone returns a dense deep copy of the table (materializing views) sharing
// the same schema. The copy owns its rows and accepts appends.
func (t *Table) Clone() *Table {
	n := t.Len()
	out := New(t.schema)
	if n == 0 {
		return out
	}
	out.grow(n)
	for j := range t.cols {
		dst := out.cols[j][:n]
		src := t.cols[j]
		if t.rows == nil {
			copy(dst, src[:n])
		} else {
			for i, p := range t.rows {
				dst[i] = src[p]
			}
		}
		out.cols[j] = dst
	}
	out.sa = make([]int, n)
	if t.rows == nil {
		copy(out.sa, t.sa)
	} else {
		for i, p := range t.rows {
			out.sa[i] = t.sa[p]
		}
	}
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
