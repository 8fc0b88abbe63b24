package table

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAttributeEncodeDecode(t *testing.T) {
	a := NewAttribute("City")
	if a.Cardinality() != 0 {
		t.Fatalf("new attribute cardinality = %d, want 0", a.Cardinality())
	}
	c1 := a.Encode("Lausanne")
	c2 := a.Encode("Geneva")
	c3 := a.Encode("Lausanne")
	if c1 != c3 {
		t.Errorf("Encode not idempotent: %d vs %d", c1, c3)
	}
	if c1 == c2 {
		t.Errorf("distinct labels share code %d", c1)
	}
	if a.Cardinality() != 2 {
		t.Errorf("cardinality = %d, want 2", a.Cardinality())
	}
	if a.Label(c2) != "Geneva" {
		t.Errorf("Label(%d) = %q", c2, a.Label(c2))
	}
	if _, ok := a.Code("Zurich"); ok {
		t.Error("Code returned ok for unknown label")
	}
}

func TestAttributeWithDomain(t *testing.T) {
	a, err := NewAttributeWithDomain("Gender", []string{"M", "F"})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Labels(); len(got) != 2 || got[0] != "M" || got[1] != "F" {
		t.Errorf("Labels = %v", got)
	}
	if _, err := NewAttributeWithDomain("X", []string{"a", "a"}); err == nil {
		t.Error("duplicate labels accepted")
	}
}

func TestAttributeLabelPanicsOutOfRange(t *testing.T) {
	a := NewIntegerAttribute("A", 3)
	defer func() {
		if recover() == nil {
			t.Error("Label(5) did not panic")
		}
	}()
	_ = a.Label(5)
}

func TestIntegerAttribute(t *testing.T) {
	a := NewIntegerAttribute("Age", 5)
	if a.Cardinality() != 5 {
		t.Fatalf("cardinality = %d", a.Cardinality())
	}
	if a.Label(3) != "3" {
		t.Errorf("Label(3) = %q", a.Label(3))
	}
	if c, ok := a.Code("4"); !ok || c != 4 {
		t.Errorf("Code(4) = %d,%v", c, ok)
	}
}

func TestAttributeClone(t *testing.T) {
	a := NewIntegerAttribute("A", 2)
	c := a.Clone()
	c.Encode("new")
	if a.Cardinality() != 2 {
		t.Error("Clone shares state with original")
	}
	if c.Cardinality() != 3 {
		t.Error("Clone did not accept new label")
	}
}

func TestSchemaValidation(t *testing.T) {
	age := NewIntegerAttribute("Age", 3)
	sa := NewIntegerAttribute("Disease", 2)
	if _, err := NewSchema(nil, sa); err == nil {
		t.Error("schema with no QI accepted")
	}
	if _, err := NewSchema([]*Attribute{age}, nil); err == nil {
		t.Error("schema with nil SA accepted")
	}
	if _, err := NewSchema([]*Attribute{age, age}, sa); err == nil {
		t.Error("duplicate QI attribute accepted")
	}
	if _, err := NewSchema([]*Attribute{age}, age); err == nil {
		t.Error("SA colliding with QI accepted")
	}
	s, err := NewSchema([]*Attribute{age}, sa)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dimensions() != 1 || s.QIIndex("Age") != 0 || s.QIIndex("X") != -1 {
		t.Error("schema accessors wrong")
	}
}

func hospitalTable(t *testing.T) *Table {
	t.Helper()
	age := NewAttribute("Age")
	gender := NewAttribute("Gender")
	edu := NewAttribute("Education")
	disease := NewAttribute("Disease")
	tb := NewBuilder(MustSchema([]*Attribute{age, gender, edu}, disease), 0)
	rows := [][4]string{
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Master", "HIV"},
		{"<30", "M", "Bachelor", "pneumonia"},
		{"[30,50)", "M", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "bronchitis"},
		{"[30,50)", "F", "Bachelor", "pneumonia"},
		{">=50", "F", "HighSch", "dyspepsia"},
		{">=50", "F", "HighSch", "pneumonia"},
	}
	for _, r := range rows {
		if err := tb.AppendLabels([]string{r[0], r[1], r[2]}, r[3]); err != nil {
			t.Fatal(err)
		}
	}
	return tb.Build()
}

func TestTableBasics(t *testing.T) {
	tbl := hospitalTable(t)
	if tbl.Len() != 10 || tbl.Dimensions() != 3 {
		t.Fatalf("len=%d d=%d", tbl.Len(), tbl.Dimensions())
	}
	hist := saHistogram(tbl)
	if len(hist) != 4 {
		t.Errorf("SA cardinality = %d, want 4", len(hist))
	}
	if hist[tbl.SAValue(0)] != 2 { // HIV appears twice
		t.Errorf("HIV count = %d", hist[tbl.SAValue(0)])
	}
	if tbl.QILabel(2, 2) != "Bachelor" || tbl.SALabel(2) != "pneumonia" {
		t.Error("label accessors wrong")
	}
}

// saHistogram is the sparse-map histogram of the table's SA codes, the
// oracle of SACounts.
func saHistogram(tbl *Table) map[int]int {
	h := make(map[int]int)
	for _, v := range tbl.SAView() {
		h[v]++
	}
	return h
}

func TestSACountsMatchesHistogram(t *testing.T) {
	tbl := hospitalTable(t)
	if got, want := tbl.SADomainSize(), tbl.Schema().SA().Cardinality(); got != want {
		t.Fatalf("SADomainSize = %d, want %d", got, want)
	}
	counts := tbl.SACounts()
	if len(counts) != tbl.SADomainSize() {
		t.Fatalf("len(SACounts) = %d, want %d", len(counts), tbl.SADomainSize())
	}
	hist := saHistogram(tbl)
	total := 0
	for v, c := range counts {
		if c != hist[v] {
			t.Errorf("counts[%d] = %d, histogram says %d", v, c, hist[v])
		}
		total += c
	}
	if total != tbl.Len() {
		t.Errorf("counts sum to %d, want %d", total, tbl.Len())
	}
	// Every stored code must be within the advertised domain bound.
	for i := 0; i < tbl.Len(); i++ {
		if v := tbl.SAValue(i); v < 0 || v >= tbl.SADomainSize() {
			t.Fatalf("row %d: SA code %d outside [0, %d)", i, v, tbl.SADomainSize())
		}
	}
}

func TestAppendRowValidation(t *testing.T) {
	tb := NewBuilder(MustSchema([]*Attribute{NewIntegerAttribute("A", 2)}, NewIntegerAttribute("B", 2)), 0)
	if err := tb.AppendRow([]int{0, 1}, 0); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := tb.AppendRow([]int{5}, 0); err == nil {
		t.Error("out-of-range QI accepted")
	}
	if err := tb.AppendRow([]int{1}, 9); err == nil {
		t.Error("out-of-range SA accepted")
	}
	if err := tb.AppendRow([]int{1}, 1); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

// TestSAGrowsWithArena checks that a builder's SA column is allocated with
// its QI arena, at the same capacity, so filling a reservation allocates
// nothing and outgrowing it reallocates both together, and that Subset,
// Sample and Clone allocate their rows exactly once.
func TestSAGrowsWithArena(t *testing.T) {
	sch := MustSchema([]*Attribute{NewIntegerAttribute("A", 2), NewIntegerAttribute("B", 2)}, NewIntegerAttribute("S", 2))
	reserved := NewBuilder(sch, 100)
	if allocs := testing.AllocsPerRun(99, func() { reserved.MustAppendRow([]int{0, 1}, 1) }); allocs != 0 {
		t.Errorf("appending within the reservation allocated %.0f times per row", allocs)
	}
	if len(reserved.sa) != 100 || reserved.cap != 100 {
		t.Fatalf("len %d, capacity %d after filling a reservation of 100", len(reserved.sa), reserved.cap)
	}
	reserved.MustAppendRow([]int{1, 0}, 0)
	if reserved.cap != 200 || cap(reserved.sa) != 200 || cap(reserved.cols[0]) != 200 {
		t.Errorf("outgrown reservation: capacity %d, SA capacity %d, want 200", reserved.cap, cap(reserved.sa))
	}
	outgrown := reserved.Build()
	if outgrown.SAValue(100) != 0 || outgrown.QIAt(99, 1) != 1 {
		t.Error("outgrown reservation: rows lost in the copy")
	}
	hospital := hospitalTable(t)
	for _, tc := range []struct {
		name  string
		tbl   *Table
		exact bool
	}{
		{"outgrown reservation", outgrown, false},
		{"grown by appends", hospital, false},
		{"subset", hospital.Subset([]int{3, 1, 4}), true},
		{"sample", hospital.Sample(5, rand.New(rand.NewSource(1))), true},
		{"clone", hospital.Clone(), true},
	} {
		tbl := tc.tbl
		if cap(tbl.sa) != cap(tbl.cols[0]) || tbl.Len() > cap(tbl.sa) || tc.exact && cap(tbl.sa) != tbl.Len() {
			t.Errorf("%s: %d rows, arena capacity %d, SA capacity %d", tc.name, tbl.Len(), cap(tbl.cols[0]), cap(tbl.sa))
		}
	}
}

func TestGroupByQI(t *testing.T) {
	tbl := hospitalTable(t)
	groups := tbl.GroupByQI()
	if len(groups) != 5 {
		t.Fatalf("got %d QI-groups, want 5", len(groups))
	}
	total := 0
	for _, g := range groups {
		total += len(g)
		key := tbl.QIKey(g[0])
		for _, r := range g {
			if tbl.QIKey(r) != key {
				t.Error("group mixes different QI keys")
			}
		}
	}
	if total != tbl.Len() {
		t.Errorf("groups cover %d rows, want %d", total, tbl.Len())
	}
}

// stringKeyGroups is the specification implementation of GroupByQI: bucket
// rows by formatted QI key, order groups by sorting the key strings.
func stringKeyGroups(tbl *Table) [][]int {
	byKey := make(map[string][]int)
	for i := 0; i < tbl.Len(); i++ {
		k := tbl.QIKey(i)
		byKey[k] = append(byKey[k], i)
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

// Property: the sort-based grouping returns exactly the groups and the group
// order of the documented string-key specification, including for attribute
// cardinalities above 9 where decimal order differs from numeric order
// ("10" < "2").
func TestGroupByQIMatchesStringKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tb := NewBuilder(MustSchema(
			[]*Attribute{NewIntegerAttribute("A", 13), NewIntegerAttribute("B", 101), NewIntegerAttribute("C", 3)},
			NewIntegerAttribute("S", 4)), 0)
		n := rng.Intn(60) + 1
		for i := 0; i < n; i++ {
			tb.MustAppendRow([]int{rng.Intn(13), rng.Intn(101), rng.Intn(3)}, rng.Intn(4))
		}
		tbl := tb.Build()
		got := tbl.GroupByQI()
		want := stringKeyGroups(tbl)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		for g := range want {
			if !reflect.DeepEqual(got[g], want[g]) {
				t.Fatalf("trial %d group %d: got %v, want %v (key %q)",
					trial, g, got[g], want[g], tbl.QIKey(want[g][0]))
			}
		}
	}
}

// TestGroupByQIMemoNotInherited groups a table first, then groups its subsets
// and projections: each must return its own grouping, not the parent's.
func TestGroupByQIMemoNotInherited(t *testing.T) {
	tbl := hospitalTable(t)
	parent := tbl.GroupByQI()
	sub := tbl.Subset([]int{4, 0, 2})
	proj, err := tbl.Project([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	named, err := tbl.ProjectNames([]string{"Age"})
	if err != nil {
		t.Fatal(err)
	}
	sample := tbl.Sample(3, rand.New(rand.NewSource(1)))
	for name, v := range map[string]*Table{"Subset": sub, "Project": proj, "ProjectNames": named, "Sample": sample, "Clone": tbl.Clone()} {
		got := v.GroupByQI()
		if want := stringKeyGroups(v); !reflect.DeepEqual(got, want) {
			t.Errorf("%s of a grouped table: got %v, want its own grouping %v", name, got, want)
		}
		if name != "Clone" && reflect.DeepEqual(got, parent) {
			t.Errorf("%s returned the parent's grouping %v", name, parent)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct{ c, want int }{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {256, 8}, {257, 9}}
	for _, c := range cases {
		if got := bitsFor(c.c); got != c.want {
			t.Errorf("bitsFor(%d) = %d, want %d", c.c, got, c.want)
		}
		if limit := 1 << bitsFor(c.c); limit < c.c {
			t.Errorf("bitsFor(%d) cannot hold cardinality", c.c)
		}
	}
}

func TestProjectAndSubset(t *testing.T) {
	tbl := hospitalTable(t)
	p, err := tbl.ProjectNames([]string{"Gender", "Age"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dimensions() != 2 || p.Len() != tbl.Len() {
		t.Fatalf("projection shape %dx%d", p.Len(), p.Dimensions())
	}
	if p.QILabel(0, 0) != "M" || p.QILabel(0, 1) != "<30" {
		t.Errorf("projection reordered columns incorrectly: %q %q", p.QILabel(0, 0), p.QILabel(0, 1))
	}
	if _, err := tbl.ProjectNames([]string{"Nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
	sub := tbl.Subset([]int{9, 0})
	if sub.Len() != 2 || sub.SALabel(0) != "pneumonia" || sub.SALabel(1) != "HIV" {
		t.Error("Subset did not preserve requested order")
	}
}

func TestSampleAndClone(t *testing.T) {
	tbl := hospitalTable(t)
	rng := rand.New(rand.NewSource(7))
	s := tbl.Sample(4, rng)
	if s.Len() != 4 {
		t.Fatalf("sample size %d", s.Len())
	}
	s2 := tbl.Sample(100, rng)
	if s2.Len() != tbl.Len() {
		t.Errorf("oversized sample has %d rows", s2.Len())
	}
	c := tbl.Clone()
	if !c.Equal(tbl) {
		t.Error("clone differs from original")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := hospitalTable(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, []string{"Age", "Gender", "Education"}, "Disease")
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Len(), tbl.Len())
	}
	for i := 0; i < tbl.Len(); i++ {
		for j := 0; j < tbl.Dimensions(); j++ {
			if back.QILabel(i, j) != tbl.QILabel(i, j) {
				t.Fatalf("row %d col %d: %q vs %q", i, j, back.QILabel(i, j), tbl.QILabel(i, j))
			}
		}
		if back.SALabel(i) != tbl.SALabel(i) {
			t.Fatalf("row %d SA mismatch", i)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), []string{"missing"}, "b"); err == nil {
		t.Error("missing QI column accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), []string{"a"}, "missing"); err == nil {
		t.Error("missing SA column accepted")
	}
	if _, err := ReadCSV(strings.NewReader(""), []string{"a"}, "b"); err == nil {
		t.Error("empty input accepted")
	}
}

func TestStringTruncation(t *testing.T) {
	tbl := hospitalTable(t)
	if !strings.Contains(tbl.String(), "Disease") {
		t.Error("String() misses header")
	}
}

// Property: projection preserves SA values and row count for any column subset.
func TestProjectionPropertyQuick(t *testing.T) {
	tbl := hospitalTable(t)
	f := func(mask uint8) bool {
		var cols []int
		for j := 0; j < tbl.Dimensions(); j++ {
			if mask&(1<<uint(j)) != 0 {
				cols = append(cols, j)
			}
		}
		if len(cols) == 0 {
			cols = []int{0}
		}
		p, err := tbl.Project(cols)
		if err != nil {
			return false
		}
		if p.Len() != tbl.Len() {
			return false
		}
		for i := 0; i < p.Len(); i++ {
			if p.SAValue(i) != tbl.SAValue(i) {
				return false
			}
			for jj, c := range cols {
				if p.QIAt(i, jj) != tbl.QIAt(i, c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GroupByQI always partitions the rows, for random tables.
func TestGroupByQIPropertyQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		tb := NewBuilder(MustSchema(
			[]*Attribute{NewIntegerAttribute("A", 3), NewIntegerAttribute("B", 2)},
			NewIntegerAttribute("S", 4)), 0)
		for i := 0; i < n; i++ {
			tb.MustAppendRow([]int{rng.Intn(3), rng.Intn(2)}, rng.Intn(4))
		}
		tbl := tb.Build()
		groups := tbl.GroupByQI()
		seen := make([]bool, n)
		for _, g := range groups {
			for _, r := range g {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
