// Package viewsafety is golden testdata for the viewsafety analyzer:
// mutation of zero-copy projections, retention of borrowed column slices
// across appends, and writes into the memoized GroupByQI result.
package viewsafety

import (
	"slices"
	"sort"

	"ldiv/internal/table"
)

// appendToNamedProjection: mutating a projection variable.
func appendToNamedProjection(t *table.Table, names []string) error {
	v, err := t.ProjectNames(names)
	if err != nil {
		return err
	}
	v.MustAppendRow([]int{1}, 2) // want `MustAppendRow on v, which may be a zero-copy projection \(assigned from ProjectNames`
	return nil
}

// appendToProjection: the (*Table, error) form taints the table result.
func appendToProjection(t *table.Table) error {
	p, err := t.Project([]int{0})
	if err != nil {
		return err
	}
	return p.AppendLabels([]string{"a"}, "b") // want `AppendLabels on p, which may be a zero-copy projection \(assigned from Project`
}

// appendToSubset: Subset and Sample copy their rows, so appends to their
// results are fine, assigned or chained.
func appendToSubset(t *table.Table, rows []int) error {
	v := t.Subset(rows)
	v.MustAppendRow([]int{1}, 2)
	t.Subset(rows).MustAppendRow([]int{1}, 2)
	return t.Sample(10).AppendRow([]int{1}, 2)
}

// cloneMakesItSafe: Clone materializes, so appends are fine.
func cloneMakesItSafe(t *table.Table) error {
	v, err := t.Project([]int{0})
	if err != nil {
		return err
	}
	v = v.Clone()
	v.MustAppendRow([]int{1}, 2)
	return nil
}

// chainedClone: Clone directly in the chain is fine too.
func chainedClone(t *table.Table, names []string) error {
	p, err := t.ProjectNames(names)
	if err != nil {
		return err
	}
	p.Clone().MustAppendRow([]int{1}, 2)
	return nil
}

// appendToOwner: appending to a table that shares no columns is fine.
func appendToOwner(t *table.Table) {
	t.MustAppendRow([]int{1}, 2)
}

// suppressedProjectionAppend: a justified suppression silences the
// diagnostic.
func suppressedProjectionAppend(t *table.Table) {
	p, _ := t.Project([]int{0})
	//lint:ignore viewsafety exercised only on owning tables in this test helper
	p.MustAppendRow([]int{1}, 2)
}

// staleColAfterAppend: a borrowed column slice used after an append on the
// same table.
func staleColAfterAppend(t *table.Table) int32 {
	col := t.Col(0)
	t.MustAppendRow([]int{1}, 2)
	return col[0] // want `col was borrowed from t\.Col\(\) before an append on t`
}

// staleSAViewAfterAppend: same for the sensitive column.
func staleSAViewAfterAppend(t *table.Table) int {
	sa := t.SAView()
	t.MustAppendRow([]int{1}, 2)
	return sa[0] // want `sa was borrowed from t\.SAView\(\) before an append on t`
}

// refetchAfterAppend: re-borrowing after the append is the documented fix.
func refetchAfterAppend(t *table.Table) int32 {
	col := t.Col(0)
	_ = col
	t.MustAppendRow([]int{1}, 2)
	col = t.Col(0)
	return col[0]
}

// appendToOtherTable: appends to a different table do not invalidate.
func appendToOtherTable(t, u *table.Table) int32 {
	col := t.Col(0)
	u.MustAppendRow([]int{1}, 2)
	return col[0]
}

// useBeforeAppend: uses before the append are fine.
func useBeforeAppend(t *table.Table) int32 {
	col := t.Col(0)
	v := col[0]
	t.MustAppendRow([]int{1}, 2)
	return v
}

// assignIntoGrouping: element writes into the result and into a group.
func assignIntoGrouping(t *table.Table) {
	groups := t.GroupByQI()
	groups[0] = nil         // want `assignment to groups\[0\] writes into a GroupByQI result`
	groups[1][0] = 7        // want `assignment to groups\[1\]\[0\] writes into a GroupByQI result`
	t.GroupByQI()[0][0] = 1 // want `assignment to t\.GroupByQI\(\)\[0\]\[0\] writes into a GroupByQI result`
}

// writeThroughRangedGroup: a ranged group and an indexed group stay tainted,
// and so does a re-slice of one.
func writeThroughRangedGroup(t *table.Table) {
	for _, g := range t.GroupByQI() {
		g[0]++ // want `assignment to g\[0\] writes into a GroupByQI result`
	}
	groups := t.GroupByQI()
	g := groups[0]
	tail := g[1:]
	tail[0] = 3 // want `assignment to tail\[0\] writes into a GroupByQI result`
}

// sortGrouping: in-place sorts of a group or of the result.
func sortGrouping(t *table.Table) {
	groups := t.GroupByQI()
	for _, g := range groups {
		sort.Ints(g) // want `sort\.Ints on g writes into a GroupByQI result`
	}
	slices.Sort(groups[0])                                                         // want `slices\.Sort on groups\[0\] writes into a GroupByQI result`
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] }) // want `sort\.Slice on groups writes into a GroupByQI result`
	sort.Sort(sort.IntSlice(groups[1]))                                            // want `sort\.Sort on sort\.IntSlice\(groups\[1\]\) writes into a GroupByQI result`
}

// appendToGrouping: append to a group or to the result, and copy into one.
func appendToGrouping(t *table.Table, extra []int) [][]int {
	groups := t.GroupByQI()
	_ = append(groups[0], 5)     // want `append to groups\[0\] writes into a GroupByQI result`
	copy(groups[1], extra)       // want `copy to groups\[1\] writes into a GroupByQI result`
	return append(groups, extra) // want `append to groups writes into a GroupByQI result`
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
	groups[0] = nil // want `assignment to groups\[0\] writes into a GroupByQI result`
}

// suppressedGroupingWrite: a justified suppression silences the diagnostic.
func suppressedGroupingWrite(t *table.Table) {
	groups := t.GroupByQI()
	//lint:ignore viewsafety the table is private to this function and never grouped again
	sort.Ints(groups[0])
}
