// Package lint is ldivlint: a suite of custom analyzers that machine-enforce
// the architectural invariants this repository's guarantees rest on.
//
// Every guarantee the reproduction makes — byte-identical releases and
// figures across worker counts, zero-copy columnar views of read-only
// tables, audit verdicts computed on full-width
// saturating counts, bounded-queue backpressure that is never silently
// dropped — was, before this suite, enforced only by tests and reviewer
// vigilance. Each analyzer here turns one of those invariants into a
// machine-checked rule that fails `make lint` (and CI) at the moment a
// change violates it, before the differential harness ever runs:
//
//   - detrange:   no nondeterministic iteration or clocks in packages whose
//     bytes reach a release, a figure, or a verdict
//   - viewsafety: no writes through a table's zero-copy column slices or
//     its shared grouping (invariant 0: tables are read-only once built)
//   - narrowconv: no unguarded narrowing of count-carrying integers (the
//     PR 5 int32 bug class) outside the blessed internal/sat helpers
//   - poolcheck:  no dropped TrySubmit backpressure verdicts, no
//     parallel.Queue that can never drain
//   - directive:  every //lint:ignore suppression names a real analyzer and
//     states its reason
//
// A diagnostic can be suppressed, one line at a time, with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or the line directly above it. The reason is
// mandatory: a suppression without one is itself a diagnostic (see
// directive.go), so the tree always carries a written justification for
// every place an invariant is knowingly bent.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldiv/internal/lint/analysis"
)

// Analyzers returns the full ldivlint suite in the order the driver runs it.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Detrange,
		Viewsafety,
		Narrowconv,
		Poolcheck,
		Directive,
	}
}

// --- //lint:ignore directives ------------------------------------------------

const ignorePrefix = "lint:ignore"

// An IgnoreDirective is one parsed //lint:ignore comment.
type IgnoreDirective struct {
	Pos       token.Pos
	File      string   // filename as recorded in the FileSet
	Line      int      // 1-based line of the comment
	Analyzers []string // comma-separated analyzer list, split
	Reason    string   // empty means malformed: the reason is mandatory
}

// directivesIn collects every //lint:ignore directive in the files. Malformed
// directives (no analyzer, no reason) are returned too — the directive
// analyzer reports them, and the suppression filter refuses to honor them.
func directivesIn(fset *token.FileSet, files []*ast.File) []IgnoreDirective {
	var out []IgnoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // /* */ comments cannot carry directives
				}
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				// The reason runs to the end of the comment or to an
				// embedded "//", which starts a trailing remark that is not
				// part of the justification (analysistest uses this for its
				// // want expectations).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = rest[:i]
				}
				pos := fset.Position(c.Pos())
				d := IgnoreDirective{Pos: c.Pos(), File: pos.Filename, Line: pos.Line}
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							d.Analyzers = append(d.Analyzers, name)
						}
					}
					d.Reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppresses reports whether the directive silences a diagnostic from the
// named analyzer at the given file and line. A directive covers its own line
// (end-of-line comment) and the line directly below it (comment above the
// offending statement). Malformed directives suppress nothing, and directive
// diagnostics themselves can never be suppressed.
func (d IgnoreDirective) suppresses(analyzer, file string, line int) bool {
	if analyzer == Directive.Name {
		return false
	}
	if d.Reason == "" || d.File != file {
		return false
	}
	if line != d.Line && line != d.Line+1 {
		return false
	}
	for _, name := range d.Analyzers {
		if name == analyzer {
			return true
		}
	}
	return false
}

// Suppress filters diags, dropping every diagnostic covered by a well-formed
// //lint:ignore directive in files. The driver and the analysistest harness
// share this filter so golden tests exercise exactly what `make lint` runs.
func Suppress(fset *token.FileSet, files []*ast.File, analyzer string, diags []analysis.Diagnostic) []analysis.Diagnostic {
	dirs := directivesIn(fset, files)
	if len(dirs) == 0 {
		return diags
	}
	var kept []analysis.Diagnostic
	for _, diag := range diags {
		pos := fset.Position(diag.Pos)
		suppressed := false
		for _, d := range dirs {
			if d.suppresses(analyzer, pos.Filename, pos.Line) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, diag)
		}
	}
	return kept
}

// --- shared type helpers -----------------------------------------------------

// pkgTail returns the path segment after the last "internal/" element:
// "ldiv/internal/core" -> "core". Matching on the tail (rather than the full
// path) keeps the analyzers honest under analysistest, whose stub packages
// live at the same internal/... paths.
func pkgTail(path string) string {
	if i := strings.LastIndex(path, "internal/"); i >= 0 {
		return path[i+len("internal/"):]
	}
	return path
}

// isNamedType reports whether t (possibly behind a pointer) is the named type
// typeName declared in a package whose import path ends in pkgSuffix.
func isNamedType(t types.Type, pkgSuffix, typeName string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isTableType reports whether t is (a pointer to) table.Table.
func isTableType(t types.Type) bool { return isNamedType(t, "internal/table", "Table") }

// isQueueType reports whether t is (a pointer to) parallel.Queue.
func isQueueType(t types.Type) bool { return isNamedType(t, "internal/parallel", "Queue") }

// methodCall resolves call as a method invocation: it returns the receiver
// expression and method name, with ok=false for plain function calls,
// conversions, and method expressions.
func methodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// pkgFunc resolves call as a call of a package-level function and returns the
// defining package path and function name.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if id, isID := fun.X.(*ast.Ident); isID {
			if pn, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return pn.Imported().Path(), fun.Sel.Name, true
			}
		}
	case *ast.Ident:
		if fn, isFn := info.Uses[fun].(*types.Func); isFn && fn.Pkg() != nil {
			return fn.Pkg().Path(), fn.Name(), true
		}
	}
	return "", "", false
}

// rootIdentObj walks selector/index/paren chains to the leftmost identifier
// and returns its object: rootIdentObj(`s.tbl[i]`) is the object of `s`.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcBodies yields each top-level function body in the file: every declared
// function and method, plus any function literal that is not nested inside
// one (package-level var initializers). Nested literals stay part of the
// enclosing body's walk — closures capture the enclosing function's
// variables, so per-function state tracking must see them in source order.
func funcBodies(file *ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Name.Name, d.Body)
			}
		case *ast.GenDecl:
			ast.Inspect(d, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					fn("func literal", lit.Body)
					return false
				}
				return true
			})
		}
	}
}
