// Package protocol is the shared model behind the nbrvet analyzers: it knows
// what a guard bracket is, computes the interprocedural facts (bracket
// summaries and restartability) every analyzer consumes, and classifies the
// operations the NBR read-phase contract forbids.
//
// The contract being modeled (internal/smr/smr.go, DESIGN.md §13): between
// Guard.BeginRead and Guard.EndRead a neutralization signal may longjmp out
// at any instruction and restart the operation from the top, so the code in
// between must be restartable — reads, writes to operation-local state, and
// calls to functions that are themselves restartable, nothing else.
package protocol

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nbr/internal/analysis/framework"
)

// Import paths of the packages whose types anchor the protocol.
const (
	SMRPath = "nbr/internal/smr"
	MemPath = "nbr/internal/mem"
	NBRPath = "nbr"
)

// State is the may-set of bracket states that reach a program point:
// a bit is set if some path arrives in that state. The zero State means
// "no path reaches here (yet)".
type State uint8

const (
	Closed State = 1 << iota // no read phase open
	Open                     // inside a BeginRead/EndRead bracket
)

// Summary is a function's bracket effect: the may-set of exit states for
// each entry state. The zero Summary is bottom — "never returns" — which is
// also the optimistic starting point of the package-level fixpoint.
type Summary struct {
	FromClosed State
	FromOpen   State
}

// Identity is the summary of a call the analysis knows nothing about: it
// returns in whatever state it was entered.
var Identity = Summary{FromClosed: Closed, FromOpen: Open}

// Apply maps an entry may-set through the summary.
func (s Summary) Apply(st State) State {
	var out State
	if st&Closed != 0 {
		out |= s.FromClosed
	}
	if st&Open != 0 {
		out |= s.FromOpen
	}
	return out
}

// FuncInfo is the per-function fact the protocol fact pass computes for
// every function in every loaded module package.
type FuncInfo struct {
	Summary Summary

	// Restartable reports the function may be called inside a read phase:
	// either its body is proven restartable, or it carries an explicit
	// //nbr:restartable annotation.
	Restartable bool
	// Proven reports the body passed the restartability check on its own.
	Proven bool
	// Annotated reports the declaration carries //nbr:restartable.
	Annotated bool
	// AnnotPos is the annotation's position when Annotated.
	AnnotPos token.Pos
	// HasBrackets reports the body calls BeginRead or EndRead directly —
	// the functions whose bracket discipline the analyzers check locally.
	HasBrackets bool
}

const funcInfoKey = "protocol.FuncInfo"

// GetFuncInfo returns the fact for fn (its generic origin), or nil for
// functions outside the loaded module packages.
func GetFuncInfo(facts *framework.FactStore, fn *types.Func) *FuncInfo {
	if v := facts.Get(fn.Origin(), funcInfoKey); v != nil {
		return v.(*FuncInfo)
	}
	return nil
}

func setFuncInfo(facts *framework.FactStore, fn *types.Func, fi *FuncInfo) {
	facts.Set(fn.Origin(), funcInfoKey, fi)
}

// GuardMethod returns the method name if call is a method call on the
// smr.Guard interface (however the interface value was reached — parameter,
// field, local), or "" otherwise. Calls on a concrete scheme's guard type
// are deliberately not matched: inside a scheme the protocol methods are
// implementation, not use.
func GuardMethod(info *types.Info, call *ast.CallExpr) string {
	return smrMethod(info, call, "Guard")
}

// BarrierMethod returns the method name if call is a method call on
// smr.Barrier, the per-operation resolution of a guard's read barrier, or ""
// otherwise.
func BarrierMethod(info *types.Info, call *ast.CallExpr) string {
	return smrMethod(info, call, "Barrier")
}

// smrMethod returns the method name if call is a method call whose receiver
// is the named smr type (or a pointer to it), or "" otherwise.
func smrMethod(info *types.Info, call *ast.CallExpr, typeName string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != SMRPath || obj.Name() != typeName {
		return ""
	}
	return sel.Sel.Name
}

// StaticCallee resolves a call to the *types.Func it statically invokes —
// a package function, a method on a known receiver type, or an interface
// method (returned as the interface's method object). Calls through plain
// function values resolve to nil. Generic instantiations resolve to their
// origin so facts line up.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Strip explicit instantiation: f[T](...) / f[T1, T2](...).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin()
			}
			return nil
		}
		// Package-qualified: pkg.F(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

// A Unit is one analyzable function body: a declared function or a function
// literal. Analyzers run each unit independently.
type Unit struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit; its Pos/End range defines
	// what "operation-local" means for the restartability checks.
	Node ast.Node
	Body *ast.BlockStmt
	// Fn is the declared function's object; nil for literals.
	Fn *types.Func
	// ExecClosure reports the literal is passed directly to smr.Execute —
	// an operation body that must leave every read phase closed on return.
	ExecClosure bool
}

// Pos returns the unit's reporting position.
func (u *Unit) Pos() token.Pos { return u.Node.Pos() }

// Units collects every function body in the files: all declared functions
// plus all function literals, with smr.Execute operation closures marked.
// Immediately-invoked literals are NOT units: the flow analyses inline them
// into the enclosing function, where they actually run.
func Units(info *types.Info, files []*ast.File) []*Unit {
	execLits := make(map[*ast.FuncLit]bool)
	iife := make(map[*ast.FuncLit]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				iife[lit] = true
			}
			fn := StaticCallee(info, call)
			if fn == nil || fn.Name() != "Execute" || fn.Pkg() == nil || fn.Pkg().Path() != SMRPath {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					execLits[lit] = true
				}
			}
			return true
		})
	}
	var units []*Unit
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				fn, _ := info.Defs[n.Name].(*types.Func)
				units = append(units, &Unit{Node: n, Body: n.Body, Fn: fn})
			case *ast.FuncLit:
				if !iife[n] {
					units = append(units, &Unit{Node: n, Body: n.Body, ExecClosure: execLits[n]})
				}
			}
			return true
		})
	}
	return units
}

// iifeLits returns the immediately-invoked function literals under n.
func iifeLits(n ast.Node) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// IsPanicCall reports whether call invokes the predeclared panic. Code
// under a panic call runs only on the crash path — which a neutralization
// never restarts — so the restartability rules skip its arguments.
func IsPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// HasRestartableAnnotation scans a declaration's doc comment for the
// //nbr:restartable annotation (DESIGN.md §13).
func HasRestartableAnnotation(doc *ast.CommentGroup) (bool, token.Pos) {
	if doc == nil {
		return false, token.NoPos
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//nbr:restartable") {
			return true, c.Pos()
		}
	}
	return false, token.NoPos
}
