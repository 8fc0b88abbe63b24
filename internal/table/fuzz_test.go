package table

import (
	"bytes"
	"testing"
)

// FuzzReadCSV fuzzes the microdata CSV decoder with arbitrary bytes. The
// decoder must never panic, and any input it accepts must round-trip to a
// fixed point: after one write/read normalization pass, writing is the exact
// inverse of reading (byte-identical CSV, cell-identical tables).
func FuzzReadCSV(f *testing.F) {
	for _, s := range readCSVSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		qi := []string{"A", "B"}
		t1, err := ReadCSV(bytes.NewReader(data), qi, "S")
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		// One normalization pass (encoding/csv may canonicalize line endings
		// inside quoted fields), then the write must be a fixed point.
		var w1 bytes.Buffer
		if err := WriteCSV(&w1, t1); err != nil {
			t.Fatalf("writing an accepted table failed: %v", err)
		}
		t2, err := ReadCSV(bytes.NewReader(w1.Bytes()), qi, "S")
		if err != nil {
			t.Fatalf("re-reading our own CSV failed: %v\nCSV:\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := WriteCSV(&w2, t2); err != nil {
			t.Fatal(err)
		}
		t3, err := ReadCSV(bytes.NewReader(w2.Bytes()), qi, "S")
		if err != nil {
			t.Fatalf("third read failed: %v", err)
		}
		if !t2.Equal(t3) {
			t.Fatalf("write/read is not a fixed point\nfirst:\n%s\nsecond:\n%s", w1.Bytes(), w2.Bytes())
		}
		var w3 bytes.Buffer
		if err := WriteCSV(&w3, t3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w2.Bytes(), w3.Bytes()) {
			t.Fatalf("CSV rendering is not a fixed point\nfirst:\n%s\nsecond:\n%s", w2.Bytes(), w3.Bytes())
		}
		if t1.Len() != t2.Len() || t1.Dimensions() != t2.Dimensions() {
			t.Fatalf("round trip changed the shape: %dx%d -> %dx%d",
				t1.Len(), t1.Dimensions(), t2.Len(), t2.Dimensions())
		}
	})
}
