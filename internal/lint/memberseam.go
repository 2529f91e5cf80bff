package lint

import (
	"go/ast"
	"go/types"
	"path"

	"repro/internal/lint/analysis"
)

// MemberSeam guards the leaderless control plane against resurrected
// single-coordinator assumptions. Gossip is the only membership
// authority, yet there are two views (the gossip table and the
// scheduling member table), and they stay consistent only because
// exactly one seam projects the first onto the second. A stray Join in
// a request handler or a Leave in an error path silently forks the
// views: the scheduler dispatches to peers the gossip layer has declared
// dead, or never learns about ones it resurrected. There is no
// registration or heartbeat endpoint left to host a second seam.
//
// The rule: calls to Join, Heartbeat or Leave on a cluster Coordinator
// are allowed only inside functions that are membership seams by name —
// the function's name mentions gossip, membership or seam. The package defining Coordinator polices itself (its
// internals are the mechanism, not a view), and test files are free to
// drive membership directly. Anything else carries a
// //dsedlint:ignore memberseam directive naming why it is exempt.
var MemberSeam = &analysis.Analyzer{
	Name: "memberseam",
	Doc: "Coordinator.Join/Heartbeat/Leave only inside membership seams " +
		"(functions named *gossip*/*membership*/*seam*)",
	Run: runMemberSeam,
}

// memberMutations are the member-table mutation methods the seam guards.
var memberMutations = map[string]bool{
	"Join":      true,
	"Heartbeat": true,
	"Leave":     true,
}

func runMemberSeam(pass *analysis.Pass) (any, error) {
	// The defining package is the mechanism itself, not a consumer view.
	if path.Base(pass.Pkg.Path()) == "cluster" {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFilename(pass.Fset.Position(file.Pos()).Filename) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isMembershipSeamFunc(fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := coordinatorMutation(pass.TypesInfo, call); ok {
					pass.Reportf(call.Pos(), "Coordinator.%s outside a membership seam: route member-table changes through the gossip membership seam so the scheduling view cannot fork from the membership view", name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// isMembershipSeamFunc reports whether the function is, by name, part
// of the sanctioned membership machinery.
func isMembershipSeamFunc(name string) bool {
	for _, seam := range []string{"gossip", "membership", "seam"} {
		if nameContainsFold(name, seam) {
			return true
		}
	}
	return false
}

// coordinatorMutation reports whether the call is Join/Heartbeat/Leave
// on a cluster Coordinator (by receiver type, so strings.Join and
// errors.Join never match).
func coordinatorMutation(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !memberMutations[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Name() != "Coordinator" || obj.Pkg() == nil || path.Base(obj.Pkg().Path()) != "cluster" {
		return "", false
	}
	return fn.Name(), true
}
