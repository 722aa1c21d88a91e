// Package recordatomic checks that pool records are touched only through
// sync/atomic. A mem.Pool keeps its records in a reservation outside the Go
// heap, where the race detector neither checks accesses nor sees the
// happens-before edges of atomics, so under -race a plain load or store of a
// record field is invisible; this analyzer is that lost half, made static.
package recordatomic

import (
	"go/ast"
	"go/token"
	"go/types"

	"nbr/internal/analysis/framework"
	"nbr/internal/analysis/protocol"
)

// Analyzer is the record-field access analyzer.
var Analyzer = &framework.Analyzer{
	Name: "recordatomic",
	Doc: `check that pool record fields are touched only through sync/atomic

A record type is any named type instantiated through mem.NewPool, mem.NewPair
or mem.Pool anywhere in the loaded module. A field of one may be touched only
as &x.f — or &x.f[i] of an array field, or &x.f.g of a nested struct — passed
to a sync/atomic function, or as the receiver of a sync/atomic method (a
typed atomic field). Any other selection of the field is a plain access to
memory outside the Go heap, which the race detector does not see. Test files
are not checked.`,
	Run: run,
}

func run(pass *framework.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				check(pass, sel, stack)
			}
			stack = append(stack, n)
			return true
		})
	}
	return nil, nil
}

// check reports sel if it selects a field of a pool record anywhere but in
// an atomic access. stack holds sel's ancestors, innermost last.
func check(pass *framework.Pass, sel *ast.SelectorExpr, stack []ast.Node) {
	info := pass.TypesInfo
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	rec := protocol.RecordType(pass.Facts, s.Recv())
	if rec == nil {
		return
	}
	// Climb to the outermost place expression inside the field: nested
	// fields and array elements are the same record memory.
	var cur ast.Expr = sel
	i := len(stack) - 1
	for ; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.SelectorExpr:
			if ps := info.Selections[p]; p.X == cur && ps != nil && ps.Kind() == types.FieldVal {
				cur = p
				continue
			}
		case *ast.IndexExpr:
			if _, isArray := info.TypeOf(p.X).Underlying().(*types.Array); p.X == cur && isArray {
				cur = p
				continue
			}
		}
		break
	}
	if i >= 0 && atomicUse(info, cur, stack[:i+1]) {
		return
	}
	pass.Reportf(sel.Sel.Pos(), "plain access to field %s of pool record %s: its memory is outside the Go heap, where the race detector does not look; touch it only as &x.%s passed to a sync/atomic function",
		sel.Sel.Name, rec.Obj().Name(), sel.Sel.Name)
}

// atomicUse reports whether place, whose ancestors are stack (innermost
// last), is used as &place passed to a sync/atomic function, as the receiver
// of a sync/atomic method, or as the operand of unsafe.Offsetof, Sizeof or
// Alignof (which read no memory).
func atomicUse(info *types.Info, place ast.Expr, stack []ast.Node) bool {
	switch p := stack[len(stack)-1].(type) {
	case *ast.UnaryExpr:
		if p.Op != token.AND || len(stack) < 2 {
			return false
		}
		call, ok := stack[len(stack)-2].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || call.Args[0] != p {
			return false
		}
		fn := protocol.StaticCallee(info, call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
	case *ast.SelectorExpr:
		s := info.Selections[p]
		return s != nil && s.Kind() == types.MethodVal && s.Obj().Pkg() != nil && s.Obj().Pkg().Path() == "sync/atomic"
	case *ast.CallExpr:
		sel, ok := ast.Unparen(p.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		b, ok := info.Uses[sel.Sel].(*types.Builtin)
		if !ok {
			return false
		}
		switch b.Name() {
		case "Offsetof", "Sizeof", "Alignof":
			return true
		}
	}
	return false
}
