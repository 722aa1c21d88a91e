// Package guardderef checks that record pointers handed out by the arena
// accessors are only obtained under protection: inside a guard bracket, or
// for handles the bracket reserved before closing. It also flags uses of a
// lease after its Release — the guard behind a released lease may already
// serve another goroutine.
package guardderef

import (
	"go/ast"
	"go/token"
	"go/types"

	"nbr/internal/analysis/framework"
	"nbr/internal/analysis/nbrcfg"
	"nbr/internal/analysis/protocol"
)

// Analyzer is the unprotected-dereference analyzer.
var Analyzer = &framework.Analyzer{
	Name: "guardderef",
	Doc: `check that arena record pointers are obtained under protection

Within functions that manage guard brackets, flags calls to the mem arena
accessors (Raw, Slot, Get, MustGet, MustSlot, Hdr) on paths where no read
phase can be open, unless the handle was reserved (passed to Guard.Reserve)
in the same function — reservations are exactly the mechanism that keeps a
record live past EndRead. Functions without brackets are out of scope:
write-phase helpers hold locks or reservations their callers took.
Separately, flags any use of a lease variable after a path may have Released
it.`,
	Run: run,
}

func run(pass *framework.Pass) (interface{}, error) {
	// The lease-implementing packages define what Release leaves behind
	// (Revoked stays readable, the watchdog revokes then releases); their
	// internal post-Release touches are the semantics, not a misuse.
	implPkg := pass.Pkg.Path() == protocol.NBRPath || pass.Pkg.Path() == protocol.SMRPath
	for _, unit := range protocol.Units(pass.TypesInfo, pass.Files) {
		if protocol.HasBracketCalls(pass.TypesInfo, unit.Body) {
			checkAccessors(pass, unit)
		}
		if !implPkg {
			checkReleasedLeases(pass, unit)
		}
	}
	return nil, nil
}

// checkAccessors flags arena accessor calls on definitely-unbracketed paths.
func checkAccessors(pass *framework.Pass, unit *protocol.Unit) {
	// Handles passed to Reserve anywhere in the unit are exempt: reserving
	// is what makes a post-EndRead access legal. Flow-insensitive on
	// purpose — a reserved handle stays reserved until EndOp.
	reserved := make(map[types.Object]bool)
	ast.Inspect(unit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if protocol.GuardMethod(pass.TypesInfo, call) == "Reserve" && len(call.Args) == 2 {
			if id, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil {
					reserved[obj] = true
				}
			}
		}
		return true
	})

	flow := protocol.RunFlow(pass.TypesInfo, pass.Facts, unit.Body, protocol.Closed)
	flow.Walk(func(n ast.Node, st protocol.State) {
		call, ok := n.(*ast.CallExpr)
		if !ok || st&protocol.Open != 0 {
			return
		}
		name := accessorName(pass.TypesInfo, call)
		if name == "" {
			return
		}
		if len(call.Args) >= 1 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && reserved[obj] {
					return
				}
			}
		}
		pass.Reportf(call.Pos(), "%s outside any read phase: the record may be reclaimed underfoot; call it inside BeginRead/EndRead or Reserve the handle first", name)
	})
}

// accessorName returns the reported name if call is an arena record
// accessor from the mem package, or "".
func accessorName(info *types.Info, call *ast.CallExpr) string {
	fn := protocol.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != protocol.MemPath {
		return ""
	}
	if fn.Signature().Recv() == nil {
		return ""
	}
	switch fn.Name() {
	case "Raw", "Slot", "Get", "MustGet", "MustSlot", "Hdr":
		return fn.Name()
	}
	return ""
}

// checkReleasedLeases runs a small forward may-analysis per unit: the state
// is the set of lease variables some path has Released; any subsequent use
// of such a variable is flagged, and reassignment clears it.
func checkReleasedLeases(pass *framework.Pass, unit *protocol.Unit) {
	// Cheap pre-filter: any Release call on a lease at all?
	any := false
	ast.Inspect(unit.Body, func(n ast.Node) bool {
		if any {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if v := releasedVar(pass.TypesInfo, call); v != nil {
				any = true
			}
		}
		return true
	})
	if !any {
		return
	}

	cfg := nbrcfg.New(unit.Body)
	in := make([]map[*types.Var]bool, len(cfg.Blocks))
	in[0] = map[*types.Var]bool{}
	work := []*nbrcfg.Block{cfg.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := copySet(in[b.Index])
		for _, n := range b.Nodes {
			stepReleases(pass.TypesInfo, n, out)
		}
		for _, succ := range b.Succs {
			if union(&in[succ.Index], out) {
				work = append(work, succ)
			}
		}
	}

	// Reporting pass: replay each reachable block, flagging uses of
	// may-released variables. Dedupe by position (a block is replayed once,
	// but an ident can be both a use and the receiver of a second Release).
	seen := make(map[token.Pos]bool)
	for _, b := range cfg.Blocks {
		if in[b.Index] == nil {
			continue
		}
		released := copySet(in[b.Index])
		for _, n := range b.Nodes {
			reportUses(pass, n, released, seen)
			stepReleases(pass.TypesInfo, n, released)
		}
	}
}

// releasedVar returns the lease variable call releases, or nil.
func releasedVar(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !isLeaseType(v.Type()) {
		return nil
	}
	return v
}

// stepReleases applies one CFG node's effect on the released set: Release
// adds its receiver, assignment to a lease variable clears it. Deferred and
// go'd calls are skipped — a `defer l.Release()` runs at function exit, not
// here — as are range/select bodies, which occupy their own CFG blocks.
func stepReleases(info *types.Info, n ast.Node, released map[*types.Var]bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		// Only the header executes here; the iteration variables are
		// (re)assigned each round, clearing any released bit.
		for _, e := range []ast.Expr{r.Key, r.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v, ok := info.ObjectOf(id).(*types.Var); ok {
					delete(released, v)
				}
			}
		}
		return
	}
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt:
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if v := releasedVar(info, x); v != nil {
				released[v] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := info.ObjectOf(id).(*types.Var); ok {
						delete(released, v)
					}
				}
			}
		}
		return true
	})
}

// reportUses flags identifiers in n that read a may-released lease
// variable. The receiver of the releasing call itself is not in the set yet
// when visited (stepReleases runs after), so only genuinely later uses —
// including a second Release — are flagged.
func reportUses(pass *framework.Pass, n ast.Node, released map[*types.Var]bool, seen map[token.Pos]bool) {
	if r, ok := n.(*ast.RangeStmt); ok {
		reportUses(pass, r.X, released, seen) // body blocks are walked separately
		return
	}
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt:
		return // calls run elsewhere; select clauses occupy their own blocks
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := x.(*ast.AssignStmt); ok {
			// LHS idents overwrite, they don't read; walk only the RHS.
			for _, rhs := range as.Rhs {
				reportUses(pass, rhs, released, seen)
			}
			for _, lhs := range as.Lhs {
				// ...except through non-ident destinations (l.field = x reads l).
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					reportUses(pass, lhs, released, seen)
				}
			}
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || !released[v] || seen[id.Pos()] {
			return true
		}
		seen[id.Pos()] = true
		pass.Reportf(id.Pos(), "use of lease %s after Release: its guard slot may already belong to another goroutine", id.Name)
		return true
	})
}

// isLeaseType reports whether t is nbr.Lease or smr.Lease (or pointer to
// one).
func isLeaseType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != "Lease" {
		return false
	}
	switch obj.Pkg().Path() {
	case protocol.NBRPath, protocol.SMRPath:
		return true
	}
	return false
}

func copySet(m map[*types.Var]bool) map[*types.Var]bool {
	out := make(map[*types.Var]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// union merges src into *dst, reporting whether *dst grew (nil *dst means
// unreached; it becomes a copy of src).
func union(dst *map[*types.Var]bool, src map[*types.Var]bool) bool {
	if *dst == nil {
		*dst = copySet(src)
		return true
	}
	grew := false
	for k := range src {
		if !(*dst)[k] {
			(*dst)[k] = true
			grew = true
		}
	}
	return grew
}
