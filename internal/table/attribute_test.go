package table

import (
	"strconv"
	"strings"
	"testing"
)

// TestLabelIndexShortAndLongLabels checks labels on both sides of the packed
// tag's 7-byte limit, the empty label, and labels that differ only in a
// trailing NUL, which a packing that ignored the length would merge.
func TestLabelIndexShortAndLongLabels(t *testing.T) {
	labels := []string{
		"", "a", "a\x00", "\x00", "\x00\x00",
		"abcdefg", "abcdefgh", "abcdefghi", // 7, 8 and 9 bytes
		"abcdef\x00", "abcdefg\x00", "abcdefgh\x00",
		strings.Repeat("x", 100), strings.Repeat("x", 101),
	}
	a := NewAttribute("A")
	for i, lab := range labels {
		if c := a.Encode(lab); c != i {
			t.Fatalf("Encode(%q) = %d, want new code %d", lab, c, i)
		}
	}
	for i, lab := range labels {
		if c := a.Encode(lab); c != i {
			t.Errorf("Encode(%q) again = %d, want %d", lab, c, i)
		}
		if c := a.EncodeBytes([]byte(lab)); c != i {
			t.Errorf("EncodeBytes(%q) = %d, want %d", lab, c, i)
		}
		// Bytes past the label, within the slice's capacity, must not
		// reach its tag.
		padded := append([]byte(lab), "\xff\x00\xffpadding"...)[:len(lab)]
		if c := a.EncodeBytes(padded); c != i {
			t.Errorf("EncodeBytes(%q) with spare capacity = %d, want %d", lab, c, i)
		}
		if c, ok := a.Code(lab); !ok || c != i {
			t.Errorf("Code(%q) = %d, %v, want %d, true", lab, c, ok, i)
		}
		if got := a.Label(i); got != lab {
			t.Errorf("Label(%d) = %q, want %q", i, got, lab)
		}
	}
	if a.Cardinality() != len(labels) {
		t.Errorf("cardinality %d, want %d", a.Cardinality(), len(labels))
	}
}

// TestLabelIndexGrowth adds 2^16 labels, short and long, through many
// resizes of the index and checks every one keeps its first-appearance code.
func TestLabelIndexGrowth(t *testing.T) {
	const n = 1 << 16
	label := func(i int) string {
		if i%2 == 1 {
			return "long-label-" + strconv.Itoa(i)
		}
		return strconv.Itoa(i)
	}
	a := NewAttribute("A")
	for i := 0; i < n; i++ {
		if c := a.EncodeBytes([]byte(label(i))); c != i {
			t.Fatalf("label %d got code %d", i, c)
		}
	}
	for i := 0; i < n; i++ {
		if c, ok := a.Code(label(i)); !ok || c != i {
			t.Fatalf("after growth Code(%q) = %d, %v, want %d", label(i), c, ok, i)
		}
	}
	if a.Cardinality() != n {
		t.Fatalf("cardinality %d, want %d", a.Cardinality(), n)
	}
}

// TestCodeMissInsertsNothing checks that looking up an absent label leaves
// the domain unchanged.
func TestCodeMissInsertsNothing(t *testing.T) {
	a, err := NewAttributeWithDomain("A", []string{"x", "a-long-label"})
	if err != nil {
		t.Fatal(err)
	}
	for _, lab := range []string{"y", "", "a-long-label-2", "a-long-labe"} {
		if c, ok := a.Code(lab); ok {
			t.Errorf("Code(%q) = %d, true for an absent label", lab, c)
		}
	}
	if a.Cardinality() != 2 {
		t.Errorf("cardinality %d after misses, want 2", a.Cardinality())
	}
	if c := a.Encode("y"); c != 2 {
		t.Errorf("first Encode after misses = %d, want 2", c)
	}
}

func TestNewAttributeWithDomainRejectsDuplicates(t *testing.T) {
	for _, labels := range [][]string{
		{"a", "b", "a"},
		{"", "x", ""},
		{"a-long-label", "b", "a-long-label"},
	} {
		_, err := NewAttributeWithDomain("A", labels)
		want := `table: attribute "A": duplicate label "` + labels[0] + `"`
		if err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %s", labels, err, want)
		}
	}
	a, err := NewAttributeWithDomain("A", []string{"b", "a", "a\x00"})
	if err != nil {
		t.Fatal(err)
	}
	for i, lab := range []string{"b", "a", "a\x00"} {
		if c, ok := a.Code(lab); !ok || c != i {
			t.Errorf("Code(%q) = %d, %v, want %d", lab, c, ok, i)
		}
	}
}

// TestCloneIndexIsIndependent checks that labels encoded into a clone reach
// neither the original's labels nor its index.
func TestCloneIndexIsIndependent(t *testing.T) {
	a := NewIntegerAttribute("A", 5)
	c := a.Clone()
	for i := 0; i < 100; i++ { // enough to resize the clone's index
		c.Encode("new-" + strconv.Itoa(i))
	}
	if a.Cardinality() != 5 {
		t.Fatalf("original cardinality %d after encoding into the clone, want 5", a.Cardinality())
	}
	if _, ok := a.Code("new-0"); ok {
		t.Fatal("a label encoded into the clone is in the original's index")
	}
	if code := a.Encode("other"); code != 5 {
		t.Fatalf("original's next code = %d, want 5", code)
	}
	if code, ok := c.Code("new-0"); !ok || code != 5 {
		t.Fatalf("clone Code(new-0) = %d, %v, want 5", code, ok)
	}
	for i := 0; i < 5; i++ {
		if code, ok := c.Code(strconv.Itoa(i)); !ok || code != i {
			t.Fatalf("clone lost label %d", i)
		}
	}
}
