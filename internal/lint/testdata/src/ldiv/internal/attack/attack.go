// Package attack is detrange positive testdata: the linking-attack audit
// reports float means that must be bit-identical run to run, so the package
// sits in the deterministic set and a float sum over a map walk is flagged.
// Integer aggregation over a map stays order-independent and passes.
package attack

// meanOverMapFlagged: the bug the package was added for — summing float
// confidences in map order changes the low bits of the mean between runs.
func meanOverMapFlagged(conf map[string]float64) float64 {
	total := 0.0
	for _, c := range conf { // want `nondeterministic iteration over map conf`
		total += c
	}
	return total / float64(len(conf))
}

// matchSizeOK: an integer count is commutative, so the map order is moot.
func matchSizeOK(sizes map[string]int) int {
	total := 0
	for _, s := range sizes {
		total += s
	}
	return total
}

// meanOverSliceOK: the fixed shape — accumulate in a deterministic order.
func meanOverSliceOK(conf []float64) float64 {
	total := 0.0
	for _, c := range conf {
		total += c
	}
	return total / float64(len(conf))
}
