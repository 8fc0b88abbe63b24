package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"ldiv/internal/lint/analysis"
)

// deterministicPkgs names the packages whose output bytes must be identical
// run to run: every algorithm that produces a release, the figure-producing
// evaluation harness, the auditor whose verdict JSON is canonical, the
// information-loss metrics the figures plot, the linking-attack audit, and
// the service layer that streams releases to clients. Matching is on the path segment after
// "internal/" so analysistest stubs at the same paths are covered too.
var deterministicPkgs = map[string]bool{
	"core":       true,
	"tds":        true,
	"hilbert":    true,
	"incognito":  true,
	"mondrian":   true,
	"anatomy":    true,
	"generalize": true,
	"experiment": true,
	"audit":      true,
	"metrics":    true,
	"service":    true,
	"store":      true,
	// The linking-attack audit reports float confidences summed over QI
	// profiles; a map walk there made MeanConfidence differ run to run.
	"attack": true,
	// The scenario-corpus generators promise same-seed byte-identical tables
	// (the differential harness and the fuzz seeds depend on it), so their
	// generate and Validate paths must stay free of map ranges and clocks.
	"dataset": true,
	// The grouping primitive (radix sort over packed rank keys) and the
	// worker pool under the TP core's parallel stages feed every release;
	// a map iteration or clock read in either would leak nondeterminism
	// into otherwise byte-identical output.
	"table":    true,
	"parallel": true,
}

// Detrange flags the canonical ways to break byte-identical output inside
// the release/figure-producing packages: ranging over a map (Go randomizes
// the order on purpose), reading the wall clock, and drawing from math/rand's
// global, seed-varying source.
var Detrange = &analysis.Analyzer{
	Name: "detrange",
	Doc: `detrange: forbid nondeterministic iteration and time/rand in release-producing packages

Releases, figures, and audit verdicts must be byte-identical across runs and
worker counts. Inside the packages that produce those bytes, this analyzer
flags:

  - range over a map, unless the loop only feeds a later sort (the keys are
    collected and ordered before use) or only updates commutative integer
    aggregates (whose result is iteration-order independent; floating-point
    accumulation is NOT commutative-associative and stays flagged);
  - time.Now, which injects the wall clock;
  - math/rand (and math/rand/v2) package-level functions, which draw from the
    globally seeded source; explicitly seeded generators via rand.New /
    rand.NewSource / rand.NewZipf / rand.NewPCG / rand.NewChaCha8 are fine.`,
	Run: runDetrange,
}

func runDetrange(pass *analysis.Pass) (any, error) {
	if !deterministicPkgs[pkgTail(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkTimeAndRand(pass, file)
		funcBodies(file, func(_ string, body *ast.BlockStmt) {
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if rangeFeedsSort(pass.TypesInfo, body, rs) || rangeIsCommutative(pass.TypesInfo, rs) {
					return true
				}
				pass.Reportf(rs.Range,
					"nondeterministic iteration over map %s in release-producing package %s: sort the keys before use, restrict the body to commutative integer aggregation, or suppress with //lint:ignore detrange <reason>",
					types.ExprString(rs.X), pass.Pkg.Name())
				return true
			})
		})
	}
	return nil, nil
}

// checkTimeAndRand flags time.Now and math/rand global-source calls.
func checkTimeAndRand(pass *analysis.Pass, file *ast.File) {
	// Seeded constructors return generators whose stream is a pure function
	// of the seed; everything else on the package reads the global source.
	seededConstructors := map[string]bool{
		"New": true, "NewSource": true, "NewZipf": true,
		"NewPCG": true, "NewChaCha8": true,
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		pkgPath, name, ok := pkgFunc(pass.TypesInfo, call)
		if !ok {
			return true
		}
		switch pkgPath {
		case "time":
			if name == "Now" {
				pass.Reportf(call.Pos(),
					"time.Now in release-producing package %s injects the wall clock into deterministic output: thread a timestamp in from the caller or suppress with //lint:ignore detrange <reason>",
					pass.Pkg.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededConstructors[name] {
				pass.Reportf(call.Pos(),
					"rand.%s draws from math/rand's global source in release-producing package %s: use an explicitly seeded *rand.Rand (rand.New(rand.NewSource(seed))) or suppress with //lint:ignore detrange <reason>",
					name, pass.Pkg.Name())
			}
		}
		return true
	})
}

// rangeFeedsSort reports whether the map range only collects values into
// slices that are sorted later in the same function: the body's only
// side effects are appends (and deletes from the ranged map itself), and
// every appended-to variable reaches a sort.* or slices.Sort* call after the
// loop. That is the repo's canonical pattern for deterministic map walks:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Ints(keys)
func rangeFeedsSort(info *types.Info, enclosing *ast.BlockStmt, rs *ast.RangeStmt) bool {
	appended := make(map[types.Object]bool)
	clean := true
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			// v = append(v, ...) (or :=), possibly several in one statement.
			if len(s.Lhs) != len(s.Rhs) {
				clean = false
				break
			}
			for i, rhs := range s.Rhs {
				id, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident)
				if !ok || !isAppendCall(info, rhs) {
					clean = false
					break
				}
				if obj := info.ObjectOf(id); obj != nil {
					appended[obj] = true
				}
			}
		case *ast.ExprStmt:
			if !isDeleteFrom(info, s.X, rs.X) {
				clean = false
			}
		default:
			clean = false
		}
		if !clean {
			return false
		}
	}
	if len(appended) == 0 {
		return false
	}
	// Every collected slice must feed a sort after the loop.
	sorted := make(map[types.Object]bool)
	ast.Inspect(enclosing, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		pkgPath, name, ok := pkgFunc(info, call)
		if !ok {
			return true
		}
		isSort := pkgPath == "sort" || (pkgPath == "slices" && len(name) >= 4 && name[:4] == "Sort")
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := info.ObjectOf(id); obj != nil && appended[obj] {
						sorted[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	for obj := range appended {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// isMinMaxOf reports whether e is a call to the builtin min or max with the
// target expression among its arguments: x = max(x, v) is a running
// extremum, order-independent.
func isMinMaxOf(info *types.Info, e, target ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, isB := info.Uses[id].(*types.Builtin); !isB || (b.Name() != "min" && b.Name() != "max") {
		return false
	}
	want := types.ExprString(target)
	for _, arg := range call.Args {
		if types.ExprString(arg) == want {
			return true
		}
	}
	return false
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// isDeleteFrom reports whether e is delete(m, k) on the ranged map itself —
// clearing a map while ranging it is order-independent and Go-specified.
func isDeleteFrom(info *types.Info, e ast.Expr, ranged ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, isB := info.Uses[id].(*types.Builtin); !isB || b.Name() != "delete" {
		return false
	}
	return types.ExprString(call.Args[0]) == types.ExprString(ranged)
}

// rangeIsCommutative reports whether every statement in the body is an
// iteration-order-independent integer aggregation: x++/x--, x op= e for a
// commutative op on an integer (or integer-element) target, x = min/max(x,
// ...), delete from the ranged map, running-extremum if-statements, and
// continue. One float accumulation, string concatenation, append, or
// anything else order-sensitive disqualifies the loop.
func rangeIsCommutative(info *types.Info, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	var stmtOK func(s ast.Stmt) bool
	stmtOK = func(s ast.Stmt) bool {
		switch s := s.(type) {
		case *ast.IncDecStmt:
			return isIntegerExpr(info, s.X)
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				for _, lhs := range s.Lhs {
					if !isIntegerExpr(info, lhs) {
						return false
					}
				}
				return true
			case token.ASSIGN:
				// x = min(x, e) / x = max(x, e): running extremum.
				if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
					return false
				}
				return isMinMaxOf(info, s.Rhs[0], s.Lhs[0])
			}
			return false
		case *ast.ExprStmt:
			return isDeleteFrom(info, s.X, rs.X)
		case *ast.IfStmt:
			// Running-extremum guard: if v > best { best = v }. Sound when
			// the comparison is strict and the single assigned variable
			// appears in the condition; ties then leave the value unchanged
			// regardless of order. Multi-assignment (tracking an argmax) is
			// tie-order-dependent and stays flagged.
			if s.Init != nil || s.Else != nil {
				return false
			}
			cond, ok := s.Cond.(*ast.BinaryExpr)
			if !ok || (cond.Op != token.LSS && cond.Op != token.GTR) {
				return false
			}
			if len(s.Body.List) != 1 {
				return false
			}
			asg, ok := s.Body.List[0].(*ast.AssignStmt)
			if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 {
				return false
			}
			id, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
			if !ok || !isIntegerExpr(info, id) {
				return false
			}
			return exprMentions(info, cond, info.ObjectOf(id))
		case *ast.BranchStmt:
			return s.Tok == token.CONTINUE
		}
		return false
	}
	for _, s := range rs.Body.List {
		if !stmtOK(s) {
			return false
		}
	}
	return true
}

// isIntegerExpr reports whether e has an integer type — the only scalar whose
// addition is exactly commutative and associative. Floating-point sums
// depend on evaluation order in their low bits, which is precisely how a
// nondeterministic map walk leaks into "deterministic" figures.
func isIntegerExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func exprMentions(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
