// Package maprange flags `range` statements over maps (and unsorted
// maps.Keys/maps.Values iterator uses) inside the packages whose output
// must be deterministic: the timing path plus harness, expcache and
// dispatch. Go randomizes map iteration order per run, so a map
// range on any result- or output-affecting path silently breaks the
// bit-identical-results contract that the fingerprint cache, the fleet's
// conflict check, and TestEngineEquivalence all lean on (flushIdleRelocs
// once had exactly such a bug).
//
// A statement where iteration order provably cannot affect results may
// carry a trailing (or directly preceding) annotation:
//
//	//fglint:deterministic <why order cannot matter>
package maprange

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Analyzer is the maprange check.
var Analyzer = &analysis.Analyzer{
	Name: "maprange",
	Doc: "flag range-over-map (and unsorted maps.Keys/Values) in packages that must produce " +
		"deterministic results; annotate provably order-independent statements with " +
		"//fglint:deterministic <reason>",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsOrderSensitive(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.CallExpr:
				checkMapsIter(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if reportAnnotated(pass, rs) {
		return
	}
	pass.Reportf(rs.Pos(),
		"range over map %s: iteration order is randomized per run; iterate a sorted key "+
			"slice, or annotate with //fglint:deterministic <reason> if order cannot affect results",
		nodeText(rs.X))
}

// checkMapsIter flags maps.Keys / maps.Values calls whose iteration
// order escapes unsorted. The call is fine when it feeds directly into
// slices.Sorted / slices.SortedFunc / slices.SortedStableFunc.
func checkMapsIter(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass, sel)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return
	}
	if fn.Name() != "Keys" && fn.Name() != "Values" {
		return
	}
	// Walk up past parens to the consuming call, if any.
	for i := len(stack) - 2; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			if psel, ok := parent.Fun.(*ast.SelectorExpr); ok {
				if pfn := calleeFunc(pass, psel); pfn != nil && pfn.Pkg() != nil &&
					pfn.Pkg().Path() == "slices" {
					switch pfn.Name() {
					case "Sorted", "SortedFunc", "SortedStableFunc":
						return
					}
				}
			}
		}
		break
	}
	if reportAnnotated(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"maps.%s yields keys in randomized order; wrap in slices.Sorted (or annotate with "+
			"//fglint:deterministic <reason> if order cannot affect results)", fn.Name())
}

// reportAnnotated returns true when the node carries a deterministic
// annotation, reporting a reason-less annotation as its own finding.
func reportAnnotated(pass *analysis.Pass, n ast.Node) bool {
	reason, ok := pass.Annotation(n, analysis.MarkerDeterministic)
	if !ok {
		return false
	}
	if reason == "" {
		pass.Reportf(n.Pos(), "//fglint:deterministic annotation needs a reason")
	}
	return true
}

func calleeFunc(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	obj := pass.Info.Uses[sel.Sel]
	fn, _ := obj.(*types.Func)
	return fn
}

// nodeText renders a short expression for diagnostics (identifiers and
// selector chains; anything else degrades to a placeholder).
func nodeText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return nodeText(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return nodeText(e.X) + "[...]"
	case *ast.CallExpr:
		return nodeText(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return nodeText(e.X)
	default:
		return "expression"
	}
}
