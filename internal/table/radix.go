package table

// radixSortPairs stably sorts keys ascending and moves rows with them, so
// rows[i] stays the row of keys[i]; every key must fit in the low usedBits
// bits. It returns the sorted pair, which is either the arrays passed in or
// a second pair it allocates as the ping-pong buffer; it never copies back.
//
// It is an LSD radix sort with one counting pass per byte of the used bits,
// least significant byte first. Each pass scatters both arrays and, as it
// reads the keys, counts the byte the next pass sorts on. A pass whose byte
// is the same in every key is skipped, so narrow or low-entropy keys take one
// or two passes. Equal keys keep the order they had on entry, which is how
// GroupByQI keeps table order within a group and chains the sorts of a
// multi-word key.
func radixSortPairs(keys []uint64, rows []int, usedBits uint) ([]uint64, []int) {
	n := len(keys)
	if n < 2 {
		return keys, rows
	}
	var tmpKeys []uint64
	var tmpRows []int
	srcK, srcR := keys, rows
	var cnt [256]int
	for _, k := range keys {
		cnt[byte(k)]++
	}
	for shift := uint(0); shift < usedBits; shift += 8 {
		var next [256]int
		if cnt[byte(srcK[0]>>shift)] == n {
			// Constant byte: nothing to reorder.
			for _, k := range srcK {
				next[byte(k>>(shift+8))]++
			}
			cnt = next
			continue
		}
		if tmpKeys == nil {
			tmpKeys, tmpRows = make([]uint64, n), make([]int, n)
		}
		dstK, dstR := tmpKeys, tmpRows
		if &srcK[0] == &tmpKeys[0] {
			dstK, dstR = keys, rows
		}
		var off [256]int
		pos := 0
		for b, c := range cnt {
			off[b] = pos
			pos += c
		}
		srcR, dstR = srcR[:len(srcK)], dstR[:len(dstK)] // lets the compiler drop bounds checks
		for i, k := range srcK {
			b := byte(k >> shift)
			j := off[b]
			dstK[j] = k
			dstR[j] = srcR[i]
			off[b] = j + 1
			next[byte(k>>(shift+8))]++
		}
		cnt = next
		srcK, srcR = dstK, dstR
	}
	return srcK, srcR
}
