// Package table defines the microdata model used throughout the library:
// categorical attributes, schemas with quasi-identifier (QI) and sensitive
// (SA) attributes, and tables of dictionary-encoded tuples.
//
// All attributes are categorical, as in the paper (Section 3). Values are
// stored as small integer codes; an Attribute owns the bidirectional mapping
// between codes and their string labels.
package table

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Attribute is a categorical attribute: a name plus a dictionary that maps
// string labels to dense integer codes in [0, Cardinality).
type Attribute struct {
	name   string
	labels []string
	codes  map[string]int

	// rankTab caches the decimal-rank table GroupByQI needs. It depends only
	// on Cardinality, so it survives across every grouping of tables sharing
	// this attribute and is invalidated by length mismatch when Encode grows
	// the domain. Atomic because projections share attributes and grouping
	// may run concurrently; the cached slice is never mutated after Store.
	rankTab atomic.Pointer[[]int]
}

// NewAttribute creates an attribute with the given name and an empty domain.
// Labels are added lazily via Encode, or eagerly via NewAttributeWithDomain.
func NewAttribute(name string) *Attribute {
	return &Attribute{name: name, codes: make(map[string]int)}
}

// NewAttributeWithDomain creates an attribute whose domain is exactly the
// given labels, coded in order. Duplicate labels are an error.
func NewAttributeWithDomain(name string, labels []string) (*Attribute, error) {
	a := NewAttribute(name)
	for _, lab := range labels {
		if _, ok := a.codes[lab]; ok {
			return nil, fmt.Errorf("table: attribute %q: duplicate label %q", name, lab)
		}
		a.codes[lab] = len(a.labels)
		a.labels = append(a.labels, lab)
	}
	return a, nil
}

// NewIntegerAttribute creates an attribute whose domain is the integers
// 0..cardinality-1, with labels equal to their decimal representation. It is
// the usual choice for synthetic data where labels carry no meaning.
func NewIntegerAttribute(name string, cardinality int) *Attribute {
	a := NewAttribute(name)
	for i := 0; i < cardinality; i++ {
		lab := fmt.Sprintf("%d", i)
		a.codes[lab] = i
		a.labels = append(a.labels, lab)
	}
	return a
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// Cardinality returns the current domain size.
func (a *Attribute) Cardinality() int { return len(a.labels) }

// Encode returns the code for label, adding it to the domain if absent.
func (a *Attribute) Encode(label string) int {
	if c, ok := a.codes[label]; ok {
		return c
	}
	c := len(a.labels)
	a.codes[label] = c
	a.labels = append(a.labels, label)
	return c
}

// EncodeBytes is Encode for a label held in a byte slice. The lookup does not
// allocate; only a label new to the domain is copied into a string.
func (a *Attribute) EncodeBytes(b []byte) int {
	if c, ok := a.codes[string(b)]; ok {
		return c
	}
	return a.Encode(string(b))
}

// Code returns the code for label and whether it is part of the domain.
func (a *Attribute) Code(label string) (int, bool) {
	c, ok := a.codes[label]
	return c, ok
}

// Label returns the label for code. It panics if code is out of range, which
// indicates a programming error (codes only originate from Encode).
func (a *Attribute) Label(code int) string {
	if code < 0 || code >= len(a.labels) {
		panic(fmt.Sprintf("table: attribute %q: code %d out of range [0,%d)", a.name, code, len(a.labels)))
	}
	return a.labels[code]
}

// Labels returns a copy of the domain labels in code order.
func (a *Attribute) Labels() []string {
	out := make([]string, len(a.labels))
	copy(out, a.labels)
	return out
}

// SortedLabels returns the domain labels in lexicographic order.
func (a *Attribute) SortedLabels() []string {
	out := a.Labels()
	sort.Strings(out)
	return out
}

// decimalRankTable returns rank[code] = position of code within the current
// domain ordered by decimal representation, computing it at most once per
// domain size: the table depends only on Cardinality, so repeated grouping of
// same-schema tables reuses one cached slice instead of re-deriving it. The
// returned slice is shared and must be treated as read-only. Encode growing
// the domain invalidates the cache by length mismatch; concurrent callers may
// race to compute the same table, which is harmless (identical contents, last
// Store wins).
func (a *Attribute) decimalRankTable() []int {
	if p := a.rankTab.Load(); p != nil && len(*p) == len(a.labels) {
		return *p
	}
	r := decimalRanks(len(a.labels))
	a.rankTab.Store(&r)
	return r
}

// Clone returns a deep copy of the attribute.
func (a *Attribute) Clone() *Attribute {
	c := &Attribute{name: a.name, labels: make([]string, len(a.labels)), codes: make(map[string]int, len(a.codes))}
	copy(c.labels, a.labels)
	//lint:ignore detrange copying a map into a map is order-independent
	for k, v := range a.codes {
		c.codes[k] = v
	}
	return c
}
