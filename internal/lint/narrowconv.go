package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldiv/internal/lint/analysis"
)

// narrowconvPkgs are the packages where counts flow: the auditor (whose
// inputs are attacker-controlled), the eligibility predicates, anatomy's
// published histograms, and the TP core's multisets. Matching is on the
// segment after "internal/", as for detrange.
var narrowconvPkgs = map[string]bool{
	"audit":       true,
	"eligibility": true,
	"anatomy":     true,
	"core":        true,
	// The store's journal replay folds attacker-adjacent on-disk bytes into
	// attempt counts and byte offsets; a narrowing there corrupts recovery.
	"store": true,
	// The corpus validators assert count-based properties (frequencies,
	// group sizes, eligibility margins); a narrowed count would let a
	// malformed family self-certify.
	"dataset": true,
}

// Narrowconv flags the PR 5 bug class: narrowing a count-carrying integer
// expression without saturation, which silently turns a large count into a
// small or negative one and flips audit verdicts.
var Narrowconv = &analysis.Analyzer{
	Name: "narrowconv",
	Doc: `narrowconv: forbid unguarded narrowing conversions of count-carrying integers

PR 5 fixed a real bug where published sensitive-value counts were narrowed to
int32 before the privacy predicates ran; a count above 2^31 wrapped negative
and the audit passed a release it should have failed. In the packages where
counts flow (internal/audit, internal/eligibility, internal/anatomy,
internal/core) this analyzer flags conversions to a sized integer narrower
than 64 bits — and int(x) of a 64-bit operand — when the converted expression
is non-constant and count-carrying: it contains additive/multiplicative
arithmetic or names something count-like (count, cnt, total, sum, size, freq,
weight).

The blessed escape is internal/sat (sat.Int32, sat.Add, sat.Add32), whose
conversions saturate instead of wrapping; code inside saturating helpers
(functions named sat*/Sat*) is exempt. Anything the analyzer cannot see is
bounded can be suppressed with //lint:ignore narrowconv <reason>.`,
	Run: runNarrowconv,
}

func runNarrowconv(pass *analysis.Pass) (any, error) {
	path := pass.Pkg.Path()
	if !narrowconvPkgs[pkgTail(path)] || strings.HasSuffix(path, "internal/sat") {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isSaturatingHelper(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkConversion(pass, call)
				return true
			})
		}
	}
	return nil, nil
}

// isSaturatingHelper reports whether a function is a blessed saturating
// helper by name: satAdd, SatInt32, saturate, ...
func isSaturatingHelper(name string) bool {
	return strings.HasPrefix(name, "sat") || strings.HasPrefix(name, "Sat")
}

func checkConversion(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return
	}
	arg := call.Args[0]
	atv, ok := info.Types[arg]
	if !ok || atv.Value != nil { // constants are checked by the compiler
		return
	}
	src, ok := atv.Type.Underlying().(*types.Basic)
	if !ok || src.Info()&types.IsInteger == 0 {
		return
	}
	if !isNarrowing(dst.Kind(), src.Kind()) {
		return
	}
	if !countCarrying(arg) {
		return
	}
	pass.Reportf(call.Pos(),
		"unguarded narrowing conversion %s(%s) of a count-carrying expression can wrap: use internal/sat (e.g. sat.Int32) or suppress with //lint:ignore narrowconv <reason>",
		dst.Name(), types.ExprString(arg))
}

// minBits is the width a destination type is guaranteed to hold; maxBits is
// the width a source type may carry. Platform-sized int/uint/uintptr are 32
// bits as a destination (they are 32 on some platforms, and the audit must
// not depend on which) but 64 as a source (they may carry 64).
var minBits = map[types.BasicKind]int{
	types.Int8: 8, types.Uint8: 8,
	types.Int16: 16, types.Uint16: 16,
	types.Int32: 32, types.Uint32: 32,
	types.Int: 32, types.Uint: 32, types.Uintptr: 32,
	types.Int64: 64, types.Uint64: 64,
}

var maxBits = map[types.BasicKind]int{
	types.Int8: 8, types.Uint8: 8,
	types.Int16: 16, types.Uint16: 16,
	types.Int32: 32, types.Uint32: 32,
	types.Int: 64, types.Uint: 64, types.Uintptr: 64,
	types.Int64: 64, types.Uint64: 64,
}

// isNarrowing reports whether converting src to dst can lose high bits: the
// destination's guaranteed width is strictly below what the source may
// carry. int32(x int) narrows (int may be 64 bits); int(x int32) never does
// (int is at least 32).
func isNarrowing(dst, src types.BasicKind) bool {
	db, okD := minBits[dst]
	sb, okS := maxBits[src]
	return okD && okS && db < sb
}

// countTokens are the identifier fragments that mark an expression as
// count-carrying.
var countTokens = []string{"count", "cnt", "total", "sum", "size", "freq", "weight"}

// countCarrying reports whether the expression smells like a count: it
// performs additive/multiplicative arithmetic (the shape of an accumulated
// total) or mentions an identifier with a count-like name.
func countCarrying(e ast.Expr) bool {
	carrying := false
	ast.Inspect(e, func(n ast.Node) bool {
		if carrying {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.SHL:
				carrying = true
			}
		case *ast.Ident:
			name := strings.ToLower(n.Name)
			for _, tok := range countTokens {
				if strings.Contains(name, tok) {
					carrying = true
					break
				}
			}
		}
		return !carrying
	})
	return carrying
}
