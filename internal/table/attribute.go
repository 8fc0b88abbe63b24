// Package table defines the microdata model used throughout the library:
// categorical attributes, schemas with quasi-identifier (QI) and sensitive
// (SA) attributes, and tables of dictionary-encoded tuples.
//
// All attributes are categorical, as in the paper (Section 3). Values are
// stored as small integer codes; an Attribute owns the bidirectional mapping
// between codes and their string labels.
package table

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"unsafe"
)

// Attribute is a categorical attribute: a name plus a dictionary that maps
// string labels to dense integer codes in [0, Cardinality), assigned in order
// of first appearance.
//
// Encode and EncodeBytes write the dictionary and need exclusive access to
// the attribute. Code, Label and the other read-only methods are safe for
// any number of concurrent readers while nothing encodes.
type Attribute struct {
	name   string
	labels []string

	// index maps labels to codes; see lookup for what a slot's tag holds. Its
	// length is zero or 1<<(64-shift), and at most three quarters of its
	// slots are in use.
	index []labelSlot
	shift uint8

	// rankTab caches the decimal-rank table GroupByQI needs. It depends only
	// on Cardinality, so it survives across every grouping of tables sharing
	// this attribute and is invalidated by length mismatch when Encode grows
	// the domain. Atomic because projections share attributes and grouping
	// may run concurrently; the cached slice is never mutated after Store.
	rankTab atomic.Pointer[[]int]
}

// labelSlot is one slot of an Attribute's open-addressed label index. A zero
// tag marks an empty slot.
type labelSlot struct {
	tag  uint64
	code int32
}

// The label index draws its hash seed and its slot multiplier once per
// process, so labels built to collide in one process's index do not collide
// in another's.
var (
	labelSeed = maphash.MakeSeed()
	slotMulti = maphash.String(labelSeed, "slot") | 1
)

// homeSlot returns the slot where the probe for tag starts. The top bits of
// the tag times a random odd multiplier are a universal hash of the tag, so
// no set of labels chosen in advance, packed tags included, piles up on a
// few slots.
func (a *Attribute) homeSlot(tag uint64) uint64 { return tag * slotMulti >> a.shift }

// lookup returns the code of label, or -1 when label is absent and add is
// false. With add set, an absent label joins the domain as s, which is
// either label as a string or "" to have label copied.
//
// A label of at most 7 bytes is packed with its length into its tag, so
// equal tags mean equal labels; the tag's top byte is the length plus one. A
// longer label's tag is its seeded hash with the top bit set, so it never
// equals a packed tag and a match is confirmed against the stored label. No
// tag is zero, the mark of an empty slot.
func (a *Attribute) lookup(label []byte, s string, add bool) int {
	var tag uint64
	if len(label) > 7 {
		tag = maphash.Bytes(labelSeed, label) | 1<<63
	} else {
		tag = uint64(len(label)+1) << 56
		if cap(label) >= 8 {
			// One load covers the label; the bytes past it are masked off.
			tag |= binary.LittleEndian.Uint64(label[:8]) & (1<<(8*len(label)) - 1)
		} else {
			for i, c := range label {
				tag |= uint64(c) << (8 * i)
			}
		}
	}
	if len(a.index) > 0 {
		mask := uint64(len(a.index) - 1)
		for i := a.homeSlot(tag); a.index[i].tag != 0; i = (i + 1) & mask {
			if e := a.index[i]; e.tag == tag && (len(label) <= 7 || string(label) == a.labels[e.code]) {
				return int(e.code)
			}
		}
	}
	if !add {
		return -1
	}
	if len(s) != len(label) {
		s = string(label)
	}
	return a.add(tag, s)
}

// add appends label, whose tag is tag, to the domain and returns its code.
func (a *Attribute) add(tag uint64, label string) int {
	c := len(a.labels)
	if c >= math.MaxInt32 {
		panic(fmt.Sprintf("table: attribute %q: more than %d labels", a.name, math.MaxInt32))
	}
	if 4*(c+1) > 3*len(a.index) {
		a.growIndex(max(bits.Len(uint(len(a.index))), 3)) // double, from 8 slots
	}
	a.index[a.emptySlot(tag)] = labelSlot{tag: tag, code: int32(c)}
	a.labels = append(a.labels, label)
	return c
}

// growIndex rebuilds the index with 1<<logSlots slots. Tags carry everything
// placement needs, so no label is hashed again.
func (a *Attribute) growIndex(logSlots int) {
	old := a.index
	a.index = make([]labelSlot, 1<<logSlots)
	a.shift = uint8(64 - logSlots)
	for _, s := range old {
		if s.tag != 0 {
			a.index[a.emptySlot(s.tag)] = s
		}
	}
}

// emptySlot returns the first empty slot on tag's probe sequence.
func (a *Attribute) emptySlot(tag uint64) int {
	mask := uint64(len(a.index) - 1)
	i := a.homeSlot(tag)
	for a.index[i].tag != 0 {
		i = (i + 1) & mask
	}
	return int(i)
}

// bytesOf views s as a byte slice for a lookup, which never writes to it.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

// NewAttribute creates an attribute with the given name and an empty domain.
// Labels are added lazily via Encode, or eagerly via NewAttributeWithDomain.
func NewAttribute(name string) *Attribute {
	return &Attribute{name: name}
}

// NewAttributeWithDomain creates an attribute whose domain is exactly the
// given labels, coded in order. Duplicate labels are an error.
func NewAttributeWithDomain(name string, labels []string) (*Attribute, error) {
	a := NewAttribute(name)
	for _, lab := range labels {
		if _, ok := a.Code(lab); ok {
			return nil, fmt.Errorf("table: attribute %q: duplicate label %q", name, lab)
		}
		a.Encode(lab)
	}
	return a, nil
}

// NewIntegerAttribute creates an attribute whose domain is the integers
// 0..cardinality-1, with labels equal to their decimal representation. It is
// the usual choice for synthetic data where labels carry no meaning.
func NewIntegerAttribute(name string, cardinality int) *Attribute {
	a := NewAttribute(name)
	for i := 0; i < cardinality; i++ {
		a.Encode(strconv.Itoa(i))
	}
	return a
}

// Name returns the attribute name.
func (a *Attribute) Name() string { return a.name }

// Cardinality returns the current domain size.
func (a *Attribute) Cardinality() int { return len(a.labels) }

// Encode returns the code for label, adding it to the domain if absent.
func (a *Attribute) Encode(label string) int { return a.lookup(bytesOf(label), label, true) }

// EncodeBytes is Encode for a label held in a byte slice. The lookup does not
// allocate; only a label new to the domain is copied into a string. It may
// read, but never writes, up to 8 bytes of b's spare capacity.
func (a *Attribute) EncodeBytes(b []byte) int { return a.lookup(b, "", true) }

// Code returns the code for label and whether it is part of the domain. It
// never adds label.
func (a *Attribute) Code(label string) (int, bool) {
	if c := a.lookup(bytesOf(label), "", false); c >= 0 {
		return c, true
	}
	return 0, false
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
	return &Attribute{name: a.name, labels: slices.Clone(a.labels), index: slices.Clone(a.index), shift: a.shift}
}
