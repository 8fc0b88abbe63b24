package lint

import (
	"go/ast"
	"go/types"

	"ldiv/internal/lint/analysis"
)

// viewProducing are the table.Table methods whose result shares its
// receiver's column storage (Subset and Sample copy); mutating their result —
// or retaining slices borrowed from any table across an append — is undefined
// under the columnar core's invariant 0. Both return (*Table, error), so a
// mutation cannot chain straight onto the call.
var viewProducing = map[string]bool{
	"Project":      true,
	"ProjectNames": true,
}

// mutating are the append-path methods. They reject projections at runtime
// and invalidate previously borrowed column slices on growth.
var mutating = map[string]bool{
	"AppendRow":     true,
	"MustAppendRow": true,
	"AppendLabels":  true,
}

// borrowing are the zero-copy accessors whose result aliases the table's
// column arena and goes stale when an append re-carves it.
var borrowing = map[string]bool{
	"Col":    true,
	"SAView": true,
}

// inPlaceSorts are the sort and slices functions that reorder their first
// argument in place.
var inPlaceSorts = map[string]map[string]bool{
	"sort":   {"Ints": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// Viewsafety encodes PR 4's invariant 0 for the columnar table core: tables
// are append-only before publication and read-only after; projections share
// storage and must never be mutated; borrowed column slices do not survive
// appends; the memoized grouping is shared by every caller and never
// written.
var Viewsafety = &analysis.Analyzer{
	Name: "viewsafety",
	Doc: `viewsafety: forbid mutating table projections or the shared grouping, and retaining column slices across appends

table.Project and ProjectNames return zero-copy projections that share the
receiver's column arena, and Col()/SAView() hand out slices aliasing it
(Subset and Sample copy their rows and are not tracked). This analyzer flags,
within a function:

  - calls to AppendRow/MustAppendRow/AppendLabels on a value obtained from
    Project/ProjectNames without an intervening Clone() — appends to
    projections fail at runtime, and Clone is the documented way to
    materialize one;
  - uses of a Col()/SAView() slice after an append on the table it was
    borrowed from — growth re-carves the arena, so the slice may alias dead
    storage;
  - writes into a GroupByQI() result or any group of it — element
    assignment, in-place sort.*/slices.Sort*, append, copy into it — since
    the grouping is memoized on the table and every caller shares it.

The analysis is intra-procedural and flow-approximate; a use the analyzer
cannot prove safe can be suppressed with //lint:ignore viewsafety <reason>.`,
	Run: runViewsafety,
}

func runViewsafety(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		funcBodies(file, func(_ string, body *ast.BlockStmt) {
			checkViewMutation(pass, body)
			checkBorrowRetention(pass, body)
			checkGroupingWrites(pass, body)
		})
	}
	return nil, nil
}

// tableMethodCall resolves call as a method call on a table.Table value and
// returns the receiver and method name.
func tableMethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	recv, name, ok = methodCall(info, call)
	if !ok {
		return nil, "", false
	}
	tv, found := info.Types[recv]
	if !found || !isTableType(tv.Type) {
		return nil, "", false
	}
	return recv, name, true
}

// checkViewMutation walks the body in source order, tainting variables
// assigned from view-producing calls and clearing the taint on any
// reassignment (Clone() included), then flags mutating calls on tainted
// variables.
func checkViewMutation(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	viewVars := make(map[types.Object]string) // tainted var -> producing method
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			recordViewAssign(info, n, viewVars)
		case *ast.CallExpr:
			recv, name, ok := tableMethodCall(info, n)
			if !ok || !mutating[name] {
				return true
			}
			if id, isID := ast.Unparen(recv).(*ast.Ident); isID {
				if producer, tainted := viewVars[info.ObjectOf(id)]; tainted {
					pass.Reportf(n.Pos(),
						"%s on %s, which may be a zero-copy projection (assigned from %s without an intervening Clone): projections reject appends — Clone() before mutating, or suppress with //lint:ignore viewsafety <reason>",
						name, id.Name, producer)
				}
			}
		}
		return true
	})
}

// chainedTableCall reports whether recv is itself a table method call,
// returning its receiver and method name.
func chainedTableCall(info *types.Info, recv ast.Expr) (inner ast.Expr, name string, ok bool) {
	call, isCall := ast.Unparen(recv).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	return tableMethodCall(info, call)
}

// recordViewAssign updates the taint map for one assignment: variables
// assigned from Project/ProjectNames become tainted with the
// producing method's name; any other assignment (including from Clone)
// clears them.
func recordViewAssign(info *types.Info, asg *ast.AssignStmt, viewVars map[types.Object]string) {
	// Producer calls may return (*Table, error); the table is the first
	// non-error left-hand side.
	producer := ""
	if len(asg.Rhs) == 1 {
		if _, name, ok := chainedTableCall(info, asg.Rhs[0]); ok && viewProducing[name] {
			producer = name
		}
	}
	for _, lhs := range asg.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if producer != "" && isTableType(obj.Type()) {
			viewVars[obj] = producer
		} else {
			delete(viewVars, obj)
		}
	}
}

// checkBorrowRetention flags uses of Col()/SAView() slices after an append on
// the table they were borrowed from. Borrows and appends are matched by the
// printed receiver expression (so s.tbl.Col(0) is only invalidated by appends
// on s.tbl), uses are compared by source position, and one diagnostic is
// issued per stale slice.
func checkBorrowRetention(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	type borrow struct {
		obj      types.Object
		accessor string
		recvStr  string
		stale    bool
		reported bool
	}
	var borrows []*borrow
	find := func(obj types.Object) *borrow {
		for _, b := range borrows {
			if b.obj == obj {
				return b
			}
		}
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil {
					continue
				}
				if b := find(obj); b != nil {
					b.stale = false // reassigned: fresh value, fresh borrow or not
					b.reported = false
				}
				rhs := rhsFor(n, i)
				if rhs == nil {
					continue
				}
				if recv, name, ok := chainedTableCall(info, rhs); ok && borrowing[name] {
					if b := find(obj); b != nil {
						b.accessor, b.recvStr = name, types.ExprString(recv)
					} else {
						borrows = append(borrows, &borrow{obj: obj, accessor: name, recvStr: types.ExprString(recv)})
					}
				}
			}
		case *ast.CallExpr:
			if recv, name, ok := tableMethodCall(info, n); ok && mutating[name] {
				recvStr := types.ExprString(recv)
				for _, b := range borrows {
					if b.recvStr == recvStr {
						b.stale = true
					}
				}
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if obj == nil {
				return true
			}
			if b := find(obj); b != nil && b.stale && !b.reported {
				b.reported = true
				pass.Reportf(n.Pos(),
					"%s was borrowed from %s.%s() before an append on %s: appends may re-carve the column arena, so the slice can alias dead storage — re-fetch it after appending, or suppress with //lint:ignore viewsafety <reason>",
					n.Name, b.recvStr, b.accessor, b.recvStr)
			}
		}
		return true
	})
}

// rhsFor returns the right-hand expression feeding left-hand side i, or nil
// for multi-value forms (x, err := f()) where i picks no single expression.
func rhsFor(asg *ast.AssignStmt, i int) ast.Expr {
	if len(asg.Rhs) == len(asg.Lhs) {
		return asg.Rhs[i]
	}
	if len(asg.Rhs) == 1 && i == 0 {
		return asg.Rhs[0]
	}
	return nil
}

// checkGroupingWrites flags writes into a GroupByQI result. It walks the body
// in source order, tainting slice variables assigned from (or ranged over) a
// GroupByQI call or an already tainted slice, clearing the taint on any other
// assignment, and reports element assignments, in-place sorts, appends and
// copies whose target is rooted at a tainted variable or at a GroupByQI call
// itself.
func checkGroupingWrites(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)
	// shared reports whether e (stripped of parens, indexing, slicing and
	// conversions such as sort.IntSlice(g)) is a GroupByQI call or a tainted
	// variable.
	shared := func(e ast.Expr) bool {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.CallExpr:
				if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
					e = x.Args[0]
					continue
				}
				_, name, ok := tableMethodCall(info, x)
				return ok && name == "GroupByQI"
			case *ast.Ident:
				return tainted[info.ObjectOf(x)]
			default:
				return false
			}
		}
	}
	taint := func(lhs ast.Expr, from ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		_, isSlice := obj.Type().Underlying().(*types.Slice)
		if isSlice && from != nil && shared(from) {
			tainted[obj] = true
		} else {
			delete(tainted, obj)
		}
	}
	report := func(pos ast.Node, what string, target ast.Expr) {
		pass.Reportf(pos.Pos(),
			"%s %s writes into a GroupByQI result, which the table memoizes and shares with every caller: copy the groups first, or suppress with //lint:ignore viewsafety <reason>",
			what, types.ExprString(target))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, isIndex := ast.Unparen(lhs).(*ast.IndexExpr); isIndex && shared(ix.X) {
					report(n, "assignment to", lhs)
				}
			}
			for i, lhs := range n.Lhs {
				taint(lhs, rhsFor(n, i))
			}
		case *ast.IncDecStmt:
			if ix, isIndex := ast.Unparen(n.X).(*ast.IndexExpr); isIndex && shared(ix.X) {
				report(n, "assignment to", n.X)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					taint(name, n.Values[i])
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				taint(n.Value, n.X)
			}
		case *ast.CallExpr:
			if len(n.Args) == 0 {
				return true
			}
			if id, isID := ast.Unparen(n.Fun).(*ast.Ident); isID {
				if b, isB := info.Uses[id].(*types.Builtin); isB && (b.Name() == "append" || b.Name() == "copy") && shared(n.Args[0]) {
					report(n, b.Name()+" to", n.Args[0])
				}
				return true
			}
			if path, name, ok := pkgFunc(info, n); ok && inPlaceSorts[path][name] && shared(n.Args[0]) {
				report(n, path+"."+name+" on", n.Args[0])
			}
		}
		return true
	})
}
