package table

// The pre-columnar row-oriented Table is retained here, test-only, as the
// behavioral oracle of the columnar rewrite (the same pattern core uses with
// its map-based RefAnonymize oracle): refTable stores one []int slice per
// row, exactly like the old layout, and implements the read API verbatim
// from the old code. The randomized equivalence tests drive the real Table
// and the reference through identical operation sequences — appends, CSV
// ingestion, grouping, projection, subsetting, sampling — and require
// cell-identical state and identical GroupByQI output at every step.

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// refTable is the old row-oriented layout: one heap-allocated []int per row.
type refTable struct {
	schema *Schema
	qi     [][]int
	sa     []int
}

func newRefTable(schema *Schema) *refTable { return &refTable{schema: schema} }

func (t *refTable) Len() int { return len(t.sa) }

func (t *refTable) appendRow(qi []int, sa int) {
	row := make([]int, len(qi))
	copy(row, qi)
	t.qi = append(t.qi, row)
	t.sa = append(t.sa, sa)
}

func (t *refTable) appendLabels(qi []string, sa string) {
	codes := make([]int, len(qi))
	for i, lab := range qi {
		codes[i] = t.schema.QI(i).Encode(lab)
	}
	t.qi = append(t.qi, codes)
	t.sa = append(t.sa, t.schema.SA().Encode(sa))
}

func (t *refTable) qiKey(i int) string {
	b := make([]byte, 0, 4*len(t.qi[i]))
	for j, v := range t.qi[i] {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// groupByQI is the string-key specification the sort-based implementations
// must reproduce: bucket rows by formatted QI key, order groups by sorting
// the key strings.
func (t *refTable) groupByQI() [][]int {
	byKey := make(map[string][]int)
	for i := 0; i < t.Len(); i++ {
		byKey[t.qiKey(i)] = append(byKey[t.qiKey(i)], i)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

func (t *refTable) subset(rows []int) *refTable {
	out := newRefTable(t.schema)
	for _, i := range rows {
		out.appendRow(t.qi[i], t.sa[i])
	}
	return out
}

func (t *refTable) project(cols []int) *refTable {
	ps, err := t.schema.Project(cols)
	if err != nil {
		panic(err)
	}
	out := newRefTable(ps)
	row := make([]int, len(cols))
	for i := range t.qi {
		for j, c := range cols {
			row[j] = t.qi[i][c]
		}
		out.appendRow(row, t.sa[i])
	}
	return out
}

func (t *refTable) saHistogramOf(rows []int) map[int]int {
	h := make(map[int]int)
	for _, r := range rows {
		h[t.sa[r]]++
	}
	return h
}

// mustMatch fails unless the columnar table and the reference agree on every
// cell, on the QI keys, and on the GroupByQI partition (groups and order).
func mustMatch(t *testing.T, got *Table, want *refTable, context string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", context, got.Len(), want.Len())
	}
	d := got.Dimensions()
	for i := 0; i < want.Len(); i++ {
		if got.SAValue(i) != want.sa[i] {
			t.Fatalf("%s: row %d SA = %d, want %d", context, i, got.SAValue(i), want.sa[i])
		}
		for j := 0; j < d; j++ {
			if got.QIAt(i, j) != want.qi[i][j] {
				t.Fatalf("%s: cell (%d,%d) = %d, want %d", context, i, j, got.QIAt(i, j), want.qi[i][j])
			}
		}
		if got.QIKey(i) != want.qiKey(i) {
			t.Fatalf("%s: row %d QIKey = %q, want %q", context, i, got.QIKey(i), want.qiKey(i))
		}
	}
	// Col agrees with the cells.
	for j := 0; j < d; j++ {
		col := got.Col(j)
		if len(col) != want.Len() {
			t.Fatalf("%s: Col(%d) has %d entries, want %d", context, j, len(col), want.Len())
		}
		for i, v := range col {
			if int(v) != want.qi[i][j] {
				t.Fatalf("%s: Col(%d)[%d] = %d, want %d", context, j, i, v, want.qi[i][j])
			}
		}
	}
	gotGroups := got.GroupByQI()
	wantGroups := want.groupByQI()
	if len(gotGroups) != len(wantGroups) {
		t.Fatalf("%s: %d QI-groups, want %d", context, len(gotGroups), len(wantGroups))
	}
	for g := range wantGroups {
		if !reflect.DeepEqual(gotGroups[g], wantGroups[g]) {
			t.Fatalf("%s: group %d = %v, want %v", context, g, gotGroups[g], wantGroups[g])
		}
	}
}

// TestColumnarMatchesReference drives both layouts through random operation
// sequences: integer appends, then random chains of projections and subsets,
// checking full equivalence after each step.
func TestColumnarMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		d := rng.Intn(4) + 1
		cards := make([]int, d)
		qiAttrs := make([]*Attribute, d)
		for j := 0; j < d; j++ {
			cards[j] = rng.Intn(12) + 1
			qiAttrs[j] = NewIntegerAttribute("A"+strconv.Itoa(j), cards[j])
		}
		saCard := rng.Intn(6) + 1
		schema := MustSchema(qiAttrs, NewIntegerAttribute("S", saCard))

		tbl := New(schema)
		ref := newRefTable(schema)
		n := rng.Intn(80)
		row := make([]int, d)
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				row[j] = rng.Intn(cards[j])
			}
			sa := rng.Intn(saCard)
			tbl.MustAppendRow(row, sa)
			ref.appendRow(row, sa)
		}
		mustMatch(t, tbl, ref, "after appends")

		// Random chain of projections and subsets over the same table.
		curT, curR := tbl, ref
		for step := 0; step < 3 && curT.Len() > 0; step++ {
			if rng.Intn(2) == 0 {
				k := rng.Intn(curT.Len() + 1)
				rows := make([]int, k)
				for i := range rows {
					rows[i] = rng.Intn(curT.Len())
				}
				curT, curR = curT.Subset(rows), curR.subset(rows)
				mustMatch(t, curT, curR, "after subset")
			} else {
				k := rng.Intn(curT.Dimensions()) + 1
				cols := rng.Perm(curT.Dimensions())[:k]
				pt, err := curT.Project(cols)
				if err != nil {
					t.Fatal(err)
				}
				curT, curR = pt, curR.project(cols)
				mustMatch(t, curT, curR, "after project")
			}
		}

		// Sample with identical rng streams hits the same rows.
		if tbl.Len() > 0 {
			seed := rng.Int63()
			s := tbl.Sample(tbl.Len()/2, rand.New(rand.NewSource(seed)))
			srng := rand.New(rand.NewSource(seed))
			perm := srng.Perm(tbl.Len())[:tbl.Len()/2]
			sort.Ints(perm)
			mustMatch(t, s, ref.subset(perm), "after sample")
		}

		// The dense counter agrees with the reference histogram on random
		// row multisets.
		if tbl.Len() > 0 {
			rows := make([]int, rng.Intn(2*tbl.Len()))
			for i := range rows {
				rows[i] = rng.Intn(tbl.Len())
			}
			want := ref.saHistogramOf(rows)
			counts, vals := tbl.SAGroupCounter().Count(rows)
			if len(vals) != len(want) {
				t.Fatalf("counter found %d distinct values, want %d", len(vals), len(want))
			}
			for _, v := range vals {
				if int(counts[v]) != want[int(v)] {
					t.Fatalf("counter[%d] = %d, want %d", v, counts[v], want[int(v)])
				}
			}
		}
	}
}

// TestColumnarMatchesReferenceCSV ingests identical label streams through
// ReadCSV (columnar) and appendLabels (reference) and checks equivalence,
// covering the dictionary-extending ingestion path.
func TestColumnarMatchesReferenceCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := []string{"a", "b", "c", "dd", "e", "f10", "g", "h2"}
	for trial := 0; trial < 20; trial++ {
		var buf bytes.Buffer
		buf.WriteString("X,Y,S\n")
		n := rng.Intn(50) + 1
		rows := make([][3]string, n)
		for i := range rows {
			rows[i] = [3]string{labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))], labels[rng.Intn(4)]}
			buf.WriteString(rows[i][0] + "," + rows[i][1] + "," + rows[i][2] + "\n")
		}
		tbl, err := ReadCSV(&buf, []string{"X", "Y"}, "S")
		if err != nil {
			t.Fatal(err)
		}
		// The reference re-encodes against its own fresh dictionaries; codes
		// match because Encode assigns them in first-appearance order either
		// way.
		ref := newRefTable(MustSchema(
			[]*Attribute{NewAttribute("X"), NewAttribute("Y")}, NewAttribute("S")))
		for _, r := range rows {
			ref.appendLabels([]string{r[0], r[1]}, r[2])
		}
		mustMatch(t, tbl, ref, "after CSV ingestion")
	}
}

// TestViewSemantics pins the sharing rules down: views reject appends, stay
// consistent when the parent keeps growing, and Clone rematerializes a dense
// appendable copy.
func TestViewSemantics(t *testing.T) {
	schema := MustSchema([]*Attribute{NewIntegerAttribute("A", 8)}, NewIntegerAttribute("S", 4))
	tbl := New(schema)
	for i := 0; i < 10; i++ {
		tbl.MustAppendRow([]int{i % 8}, i%4)
	}
	v := tbl.Subset([]int{9, 3, 3, 0})
	if !v.IsView() || tbl.IsView() {
		t.Fatalf("IsView: view=%v table=%v", v.IsView(), tbl.IsView())
	}
	if err := v.AppendRow([]int{1}, 1); err == nil {
		t.Fatal("view accepted an append")
	}
	if err := v.AppendLabels([]string{"1"}, "1"); err == nil {
		t.Fatal("view accepted a label append")
	}
	p, err := tbl.Project([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRow([]int{1}, 1); err == nil {
		t.Fatal("projection accepted an append")
	}

	// Growing the parent must not disturb existing views, whether or not the
	// arena reallocates.
	wantQI := []int{1, 3, 3, 0}
	wantSA := []int{1, 3, 3, 0}
	for i := 0; i < 500; i++ {
		tbl.MustAppendRow([]int{i % 8}, i%4)
		for k := range wantQI {
			if v.QIAt(k, 0) != wantQI[k] || v.SAValue(k) != wantSA[k] {
				t.Fatalf("after %d appends: view row %d = (%d,%d), want (%d,%d)",
					i+1, k, v.QIAt(k, 0), v.SAValue(k), wantQI[k], wantSA[k])
			}
		}
	}

	c := v.Clone()
	if c.IsView() {
		t.Fatal("Clone returned a view")
	}
	if !c.Equal(v) {
		t.Fatal("Clone differs from the view it copied")
	}
	if err := c.AppendRow([]int{1}, 1); err != nil {
		t.Fatalf("clone rejected append: %v", err)
	}

	// Subset of a subset composes the indirections.
	vv := v.Subset([]int{3, 1})
	if vv.QIAt(0, 0) != 0 || vv.QIAt(1, 0) != 3 {
		t.Fatalf("nested subset rows = %d,%d, want 0,3", vv.QIAt(0, 0), vv.QIAt(1, 0))
	}
}

// TestConcurrentViewReads exercises read-only concurrency over one table and
// many views: the race detector (make race / CI) fails this test if any read
// path mutates shared state.
func TestConcurrentViewReads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schema := MustSchema(
		[]*Attribute{NewIntegerAttribute("A", 13), NewIntegerAttribute("B", 7)},
		NewIntegerAttribute("S", 5))
	tbl := New(schema)
	for i := 0; i < 400; i++ {
		tbl.MustAppendRow([]int{rng.Intn(13), rng.Intn(7)}, rng.Intn(5))
	}
	want := tbl.GroupByQI()

	done := make(chan [][]int, 8)
	for w := 0; w < 8; w++ {
		seed := int64(w)
		go func() {
			wrng := rand.New(rand.NewSource(seed))
			v := tbl.Sample(200, wrng)
			_ = v.GroupByQI()
			_ = v.SACounts()
			_ = v.Col(0)
			_ = v.SAView()
			c := v.SAGroupCounter()
			rows := []int{0, 1, 2, 3}
			_, _ = c.Count(rows)
			p, err := tbl.Project([]int{1, 0})
			if err != nil {
				panic(err)
			}
			_ = p.GroupByQI()
			for i, codes := range tbl.QIRows() {
				_ = i
				_ = codes
			}
			done <- tbl.GroupByQI()
		}()
	}
	for w := 0; w < 8; w++ {
		got := <-done
		if !reflect.DeepEqual(got, want) {
			t.Fatal("concurrent GroupByQI differs from serial result")
		}
	}
}

// TestGroupByQIWidePacking covers the two GroupByQI fallbacks by matching
// them against the reference on schemas whose packed keys exceed 64 bits
// with and without the embedded row index.
func TestGroupByQIWidePacking(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// 5 attributes of cardinality 8000 (13 bits each = 65 bits): rank key
	// alone overflows one word -> per-attribute comparison path.
	wide := make([]*Attribute, 5)
	for j := range wide {
		wide[j] = NewIntegerAttribute("W"+strconv.Itoa(j), 8000)
	}
	// 4 attributes of cardinality 8000 (52 bits) + row bits: the packed-row
	// fast path only engages for tiny n, the keyed SortFunc path otherwise.
	narrow := make([]*Attribute, 4)
	for j := range narrow {
		narrow[j] = NewIntegerAttribute("N"+strconv.Itoa(j), 8000)
	}
	for _, attrs := range [][]*Attribute{wide, narrow} {
		schema := MustSchema(attrs, NewIntegerAttribute("S", 3))
		tbl := New(schema)
		ref := newRefTable(schema)
		row := make([]int, len(attrs))
		for i := 0; i < 300; i++ {
			for j := range row {
				row[j] = rng.Intn(5) * 1999 // collisions across the huge domain
			}
			sa := rng.Intn(3)
			tbl.MustAppendRow(row, sa)
			ref.appendRow(row, sa)
		}
		mustMatch(t, tbl, ref, "wide packing")
	}
}
