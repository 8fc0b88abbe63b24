package lint

import (
	"go/ast"
	"go/types"

	"ldiv/internal/lint/analysis"
)

// inPlaceSorts are the sort and slices functions that reorder their first
// argument in place.
var inPlaceSorts = map[string]map[string]bool{
	"sort":   {"Ints": true, "Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// Viewsafety guards the one way left to change a built table: tables are
// read-only by type (the append path lives on table.Builder), but Col(),
// SAView() and the memoized GroupByQI() hand out slices aliasing storage
// that the table and every other caller share.
var Viewsafety = &analysis.Analyzer{
	Name: "viewsafety",
	Doc: `viewsafety: forbid writes into table storage or the shared grouping

A built table.Table has no mutating method, but three accessors hand out
slices aliasing storage it shares: Col() and SAView() alias the column arena
(which projections share too), and GroupByQI() returns the grouping the
table memoizes for every caller. This analyzer flags, within a function,
writes into such a slice or any sub-slice of it — element assignment,
in-place sort.*/slices.Sort*, append, copy into it.

The analysis is intra-procedural and flow-approximate; a use the analyzer
cannot prove safe can be suppressed with //lint:ignore viewsafety <reason>.`,
	Run: runViewsafety,
}

func runViewsafety(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		funcBodies(file, func(_ string, body *ast.BlockStmt) {
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

// checkGroupingWrites flags writes into a Col, SAView or GroupByQI result. It
// walks the body in source order, tainting slice variables assigned from (or
// ranged over) such a call or an already tainted slice, clearing the taint on
// any other assignment, and reports element assignments, in-place sorts,
// appends and copies whose target is rooted at a tainted variable or at such
// a call itself.
func checkGroupingWrites(pass *analysis.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	tainted := make(map[types.Object]bool)
	// shared reports whether e (stripped of parens, indexing, slicing and
	// conversions such as sort.IntSlice(g)) is a Col, SAView or GroupByQI call
	// or a tainted variable.
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
				return ok && (name == "Col" || name == "SAView" || name == "GroupByQI")
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
			"%s %s writes into table storage shared with every caller (a Col, SAView or GroupByQI result): copy it first, or suppress with //lint:ignore viewsafety <reason>",
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
