// Package table is the analysistest stub of ldiv/internal/table: the same
// import-path tail and method names as the real columnar core, with bodies
// reduced to what type-checking needs. The viewsafety analyzer matches on
// the receiver type's package path and method names, so golden tests against
// this stub exercise exactly the matching the real driver performs.
package table

// Table is the stub of the read-only, arena-backed columnar table.
type Table struct {
	n int
}

func (t *Table) Len() int { return t.n }

// Zero-copy accessors: slices aliasing the column arena.

func (t *Table) Col(j int) []int32 { return nil }
func (t *Table) SAView() []int     { return nil }

// GroupByQI is the memoized grouping every caller shares.

func (t *Table) GroupByQI() [][]int { return nil }
