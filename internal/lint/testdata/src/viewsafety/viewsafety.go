// Package viewsafety is golden testdata for the viewsafety analyzer: writes
// into the zero-copy Col and SAView slices and into the memoized GroupByQI
// result.
package viewsafety

import (
	"slices"
	"sort"

	"ldiv/internal/table"
)

// assignIntoGrouping: element writes into the result and into a group.
func assignIntoGrouping(t *table.Table) {
	groups := t.GroupByQI()
	groups[0] = nil         // want `assignment to groups\[0\] writes into table storage`
	groups[1][0] = 7        // want `assignment to groups\[1\]\[0\] writes into table storage`
	t.GroupByQI()[0][0] = 1 // want `assignment to t\.GroupByQI\(\)\[0\]\[0\] writes into table storage`
}

// writeThroughRangedGroup: a ranged group and an indexed group stay tainted,
// and so does a re-slice of one.
func writeThroughRangedGroup(t *table.Table) {
	for _, g := range t.GroupByQI() {
		g[0]++ // want `assignment to g\[0\] writes into table storage`
	}
	groups := t.GroupByQI()
	g := groups[0]
	tail := g[1:]
	tail[0] = 3 // want `assignment to tail\[0\] writes into table storage`
}

// sortGrouping: in-place sorts of a group or of the result.
func sortGrouping(t *table.Table) {
	groups := t.GroupByQI()
	for _, g := range groups {
		sort.Ints(g) // want `sort\.Ints on g writes into table storage`
	}
	slices.Sort(groups[0])                                                         // want `slices\.Sort on groups\[0\] writes into table storage`
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] }) // want `sort\.Slice on groups writes into table storage`
	sort.Sort(sort.IntSlice(groups[1]))                                            // want `sort\.Sort on sort\.IntSlice\(groups\[1\]\) writes into table storage`
}

// appendToGrouping: append to a group or to the result, and copy into one.
func appendToGrouping(t *table.Table, extra []int) [][]int {
	groups := t.GroupByQI()
	_ = append(groups[0], 5)     // want `append to groups\[0\] writes into table storage`
	copy(groups[1], extra)       // want `copy to groups\[1\] writes into table storage`
	return append(groups, extra) // want `append to groups writes into table storage`
}

// copyBeforeWriting: copies are the caller's own, and reads are fine.
func copyBeforeWriting(t *table.Table) int {
	groups := t.GroupByQI()
	rows := append([]int(nil), groups[0]...)
	sort.Ints(rows)
	own := slices.Clone(groups[1])
	own[0] = 4
	first := groups[0][0]
	g := groups[2]
	g = make([]int, 3)
	g[0] = first
	return rows[0] + own[0] + g[0]
}

// declaredGrouping: a var declaration taints like an assignment.
func declaredGrouping(t *table.Table) {
	var groups = t.GroupByQI()
	groups[0] = nil // want `assignment to groups\[0\] writes into table storage`
}

// suppressedGroupingWrite: a justified suppression silences the diagnostic.
func suppressedGroupingWrite(t *table.Table) {
	groups := t.GroupByQI()
	//lint:ignore viewsafety the table is private to this function and never grouped again
	sort.Ints(groups[0])
}

// writeIntoColumn: a column slice aliases the table's arena.
func writeIntoColumn(t *table.Table) {
	col := t.Col(0)
	col[0] = 1 // want `assignment to col\[0\] writes into table storage`
}

// sortSAView: sorting the SA view in place reorders the table's SA column.
func sortSAView(t *table.Table) {
	slices.Sort(t.SAView()) // want `slices\.Sort on t\.SAView\(\) writes into table storage`
}

// copyColumnFirst: reading a column, or copying it into a slice of one's
// own, is fine.
func copyColumnFirst(t *table.Table) int32 {
	own := make([]int32, t.Len())
	copy(own, t.Col(0))
	own[0] = 2
	sa := slices.Clone(t.SAView())
	slices.Sort(sa)
	return own[0] + t.Col(1)[0] + int32(sa[0])
}
