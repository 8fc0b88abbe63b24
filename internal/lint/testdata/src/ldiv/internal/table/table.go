// Package table is the analysistest stub of ldiv/internal/table: the same
// import-path tail and method names as the real columnar core, with bodies
// reduced to what type-checking needs. The viewsafety analyzer matches on
// the receiver type's package path and method names, so golden tests against
// this stub exercise exactly the matching the real driver performs.
package table

// Table is the stub of the arena-backed columnar table.
type Table struct {
	n int
}

func (t *Table) Len() int { return t.n }

// Copying methods: the result owns its rows and accepts appends.

func (t *Table) Subset(rows []int) *Table { return &Table{} }
func (t *Table) Sample(k int) *Table      { return &Table{} }

// View-producing methods: zero-copy projections sharing the receiver's
// column storage.

func (t *Table) Project(cols []int) (*Table, error)          { return &Table{}, nil }
func (t *Table) ProjectNames(names []string) (*Table, error) { return &Table{}, nil }

// Clone materializes a projection into an owning table.

func (t *Table) Clone() *Table { return &Table{} }

// Mutating methods: the append path.

func (t *Table) AppendRow(qi []int, sa int) error          { return nil }
func (t *Table) MustAppendRow(qi []int, sa int)            {}
func (t *Table) AppendLabels(qi []string, sa string) error { return nil }

// Borrowing accessors: zero-copy slices aliasing the column arena.

func (t *Table) Col(j int) []int32 { return nil }
func (t *Table) SAView() []int     { return nil }

// GroupByQI is the memoized grouping every caller shares.

func (t *Table) GroupByQI() [][]int { return nil }
