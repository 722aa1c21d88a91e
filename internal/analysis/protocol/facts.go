package protocol

import (
	"go/ast"
	"go/types"

	"nbr/internal/analysis/framework"
)

// ComputeFacts is the fact pass the nbrvet driver runs over every loaded
// module package in dependency order, before any analyzer. For each declared
// function it computes and stores a FuncInfo:
//
//   - the bracket Summary, by running the bracket dataflow from each entry
//     state, iterated to a package-level fixpoint so mutually-recursive
//     functions converge (summaries start at bottom and only grow, so the
//     iteration terminates);
//   - restartability: Proven if the whole body passes the Φread rules and
//     opens no bracket of its own, Restartable if Proven or annotated with
//     //nbr:restartable;
//   - HasBrackets, for the analyzers that scope themselves to
//     bracket-managing functions.
//
// It also marks the package's pool record types (markRecords).
//
// Cross-package facts need no iteration: packages are processed in
// dependency order and the session shares one types universe, so a
// dependency's final facts are already in the store.
func ComputeFacts(pass *framework.Pass) error {
	markRecords(pass)
	type fnode struct {
		decl *ast.FuncDecl
		fn   *types.Func
		info *FuncInfo
	}
	var fns []*fnode
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			ann, pos := HasRestartableAnnotation(decl.Doc)
			nd := &fnode{decl, fn, &FuncInfo{Annotated: ann, AnnotPos: pos, Restartable: ann}}
			fns = append(fns, nd)
			// Seed at bottom so the fixpoint below treats in-package callees
			// optimistically rather than as unknown-identity.
			setFuncInfo(pass.Facts, fn, nd.info)
		}
	}

	// Bracket-summary fixpoint over this package's call graph.
	for changed := true; changed; {
		changed = false
		for _, nd := range fns {
			s := Summary{
				FromClosed: RunFlow(pass.TypesInfo, pass.Facts, nd.decl.Body, Closed).ExitState(),
				FromOpen:   RunFlow(pass.TypesInfo, pass.Facts, nd.decl.Body, Open).ExitState(),
			}
			if s != nd.info.Summary {
				nd.info.Summary = s
				changed = true
			}
		}
	}

	// Restartability and bracket presence. A caller's proof depends on its
	// same-package callees' Restartable bits, so iterate: the bit only flips
	// false→true and each flip can only remove violations elsewhere, so the
	// loop is monotone and terminates.
	for _, nd := range fns {
		nd.info.HasBrackets = HasBracketCalls(pass.TypesInfo, nd.decl.Body)
	}
	for changed := true; changed; {
		changed = false
		for _, nd := range fns {
			violations := ProveViolations(pass.TypesInfo, pass.Facts, nd.decl, nd.decl.Body)
			proven := len(violations) == 0 && !nd.info.HasBrackets
			restartable := proven || nd.info.Annotated
			if proven != nd.info.Proven || restartable != nd.info.Restartable {
				nd.info.Proven, nd.info.Restartable = proven, restartable
				changed = true
			}
		}
	}
	return nil
}

// HasBracketCalls reports whether the body calls BeginRead or EndRead on a
// guard directly — including inside immediately-invoked literals, which run
// inline, but not inside other nested function literals.
func HasBracketCalls(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	iife := iifeLits(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil || found {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			return iife[lit]
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch GuardMethod(info, call) {
			case "BeginRead", "EndRead":
				found = true
			}
		}
		return true
	})
	return found
}

// ProveViolations returns the Φread violations a whole function body would
// commit if executed inside a read phase — the same walk the fact pass uses
// to prove restartability, exposed for diagnostics on annotated functions.
func ProveViolations(info *types.Info, facts *framework.FactStore, unit ast.Node, body *ast.BlockStmt) []Violation {
	var out []Violation
	chk := &Checker{Info: info, Facts: facts, Unit: unit}
	iife := iifeLits(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if iife[lit] {
				return true // runs inline; its body must be restartable too
			}
			chk.Check(n, func(v Violation) { out = append(out, v) })
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && IsPanicCall(info, call) {
			return false // crash-path arguments are never restarted
		}
		chk.Check(n, func(v Violation) { out = append(out, v) })
		return true
	})
	return out
}
