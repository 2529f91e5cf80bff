// Package lint hosts dsedlint's project-specific analyzers: machine
// checks for the concurrency and /v1 API invariants this codebase
// established by hand across PRs 1–5. See doc.go ("Enforced
// invariants") for the rule catalogue and cmd/dsedlint for the driver.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the full dsedlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxFlow,
		LockHold,
		HTTPErr,
		JSONEnc,
		ClockInject,
	}
}

// calleeFunc resolves the statically-known function or method a call
// invokes, or nil (builtins, function values, type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeIs reports whether the call's static callee has one of the
// given types.Func full names (e.g. "context.Background",
// "(*sync.Mutex).Lock").
func calleeIs(info *types.Info, call *ast.CallExpr, fullNames ...string) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	name := fn.FullName()
	for _, want := range fullNames {
		if name == want {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// signatureHasContext reports whether any parameter (or the receiver)
// of sig is a context.Context.
func signatureHasContext(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// funcType reports the *types.Signature of a FuncDecl or FuncLit node.
func funcSignature(info *types.Info, node ast.Node) *types.Signature {
	switch n := node.(type) {
	case *ast.FuncDecl:
		if fn, ok := info.Defs[n.Name].(*types.Func); ok {
			sig, _ := fn.Type().(*types.Signature)
			return sig
		}
	case *ast.FuncLit:
		sig, _ := info.TypeOf(n.Type).(*types.Signature)
		return sig
	}
	return nil
}

// exprKey renders a selector/ident chain ("c.mu", "s.table.lock") as a
// stable string key; non-chains render as "".
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// isChanType reports whether t's core type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// nameContainsFold reports whether name contains sub, ignoring case.
func nameContainsFold(name, sub string) bool {
	return strings.Contains(strings.ToLower(name), strings.ToLower(sub))
}
