package protocol

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nbr/internal/analysis/framework"
)

// A Violation is one operation the restartability rules forbid inside an
// open read phase.
type Violation struct {
	Pos token.Pos
	Msg string
}

// Checker classifies single AST nodes against the Φread restartability
// rules for one unit. It is used two ways: by the readphase analyzer as a
// Flow.Walk visitor over nodes whose state includes Open, and by the fact
// pass over a whole body to prove a function restartable.
type Checker struct {
	Info  *types.Info
	Facts *framework.FactStore
	// Unit bounds what "operation-local" means: a variable declared inside
	// this range (params and named results included) is local storage the
	// restarted operation re-initializes; anything else is shared.
	Unit ast.Node
}

// Check appends the violations n itself commits (not its children — the
// caller visits every node) to the report callback.
func (c *Checker) Check(n ast.Node, report func(Violation)) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			return // fresh locals
		}
		for _, lhs := range n.Lhs {
			if !c.isLocal(lhs) {
				report(Violation{lhs.Pos(), "write to shared memory in read phase: a neutralization restart would leave it half-applied"})
			}
		}
	case *ast.IncDecStmt:
		if !c.isLocal(n.X) {
			report(Violation{n.Pos(), "write to shared memory in read phase: a neutralization restart would leave it half-applied"})
		}
	case *ast.SendStmt:
		report(Violation{n.Pos(), "channel send in read phase: channel ops are not restartable"})
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			report(Violation{n.Pos(), "channel receive in read phase: channel ops are not restartable"})
		}
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				report(Violation{n.Pos(), "escaping composite literal allocates in read phase"})
			}
		}
	case *ast.CompositeLit:
		if t := c.Info.TypeOf(n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				report(Violation{n.Pos(), "composite literal allocates in read phase"})
			}
		}
	case *ast.FuncLit:
		report(Violation{n.Pos(), "function literal allocates a closure in read phase"})
	case *ast.DeferStmt:
		report(Violation{n.Pos(), "defer in read phase: the deferred call outlives a neutralization restart"})
	case *ast.GoStmt:
		report(Violation{n.Pos(), "goroutine launch in read phase is not restartable"})
	case *ast.SelectStmt:
		report(Violation{n.Pos(), "select in read phase: channel ops are not restartable"})
	case *ast.RangeStmt:
		if t := c.Info.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				report(Violation{n.Range, "range over channel in read phase: channel ops are not restartable"})
			}
		}
		if n.Tok == token.ASSIGN {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e != nil && !c.isLocal(e) {
					report(Violation{e.Pos(), "write to shared memory in read phase: a neutralization restart would leave it half-applied"})
				}
			}
		}
	case *ast.CallExpr:
		c.checkCall(n, report)
	}
}

// checkCall classifies one call expression.
func (c *Checker) checkCall(call *ast.CallExpr, report func(Violation)) {
	// Builtins, the unsafe package's (unsafe.Add, unsafe.Slice, ...) included:
	// those are address arithmetic, as pure as a conversion.
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	if id != nil {
		if b, ok := c.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "new", "make":
				report(Violation{call.Pos(), fmt.Sprintf("%s allocates in read phase", b.Name())})
			case "append":
				report(Violation{call.Pos(), "append may grow (allocate) in read phase"})
			case "close":
				report(Violation{call.Pos(), "close in read phase: channel ops are not restartable"})
			case "delete", "clear", "copy":
				report(Violation{call.Pos(), fmt.Sprintf("%s writes shared memory in read phase", b.Name())})
			case "print", "println":
				report(Violation{call.Pos(), fmt.Sprintf("%s is a side effect; not restartable", b.Name())})
			}
			return // len, cap, min, max, panic, ... are fine
		}
	}
	// Type conversions are pure.
	if tv, ok := c.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	// Immediately-invoked literals run inline; their bodies are checked
	// where they execute.
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return
	}
	// Guard protocol methods.
	if m := GuardMethod(c.Info, call); m != "" {
		switch m {
		case "BeginRead", "EndRead", "Reserve", "Protect", "NeedsValidation", "Tid", "OnStale":
			// The protocol's own vocabulary inside a read phase.
		case "Retire", "RetireBatch", "RetireSegment":
			// The bracket analyzer owns misplaced retires; stay silent here
			// so one mistake yields one diagnostic.
		case "OnAlloc":
			report(Violation{call.Pos(), "allocation (Guard.OnAlloc) in read phase"})
		default:
			report(Violation{call.Pos(), fmt.Sprintf("Guard.%s in read phase is not restartable", m)})
		}
		return
	}
	// The per-operation read barrier speaks the same vocabulary: Protect is
	// Guard.Protect behind a load and a compare, NeedsValidation a cached
	// read, Stale the shared tail that ends in Guard.OnStale.
	switch BarrierMethod(c.Info, call) {
	case "Protect", "NeedsValidation", "Stale":
		return
	}
	fn := StaticCallee(c.Info, call)
	if fn == nil {
		report(Violation{call.Pos(), "call through a function value in read phase: callee is not provably restartable"})
		return
	}
	switch whitelistClass(fn) {
	case wlPure:
		return
	case wlWrite:
		report(Violation{call.Pos(), fmt.Sprintf("%s is a shared-memory write; not restartable in a read phase", calleeName(fn))})
		return
	case wlLock:
		report(Violation{call.Pos(), fmt.Sprintf("%s in read phase: lock/synchronization ops are not restartable", calleeName(fn))})
		return
	}
	if fi := GetFuncInfo(c.Facts, fn); fi != nil {
		if fi.Restartable {
			return
		}
		report(Violation{call.Pos(), fmt.Sprintf("call to %s in read phase: not restartable (annotate //nbr:restartable only if every path is restart-safe)", calleeName(fn))})
		return
	}
	report(Violation{call.Pos(), fmt.Sprintf("call to %s in read phase: not proven restartable", calleeName(fn))})
}

type wlClass int

const (
	wlUnknown wlClass = iota
	wlPure            // always allowed in a read phase
	wlWrite           // a shared-memory write
	wlLock            // a lock/synchronization operation
)

// whitelistClass classifies callees the fact pass cannot see into: the
// standard library (no source loaded) and interface methods (no body).
func whitelistClass(fn *types.Func) wlClass {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	name := fn.Name()
	switch pkg {
	case "sync/atomic":
		if strings.HasPrefix(name, "Load") || name == "Load" {
			return wlPure
		}
		return wlWrite
	case "sync":
		return wlLock
	case "runtime":
		if name == "Gosched" || name == "KeepAlive" || name == "NumGoroutine" {
			return wlPure
		}
	case "math", "math/bits":
		return wlPure
	case MemPath:
		// Interface methods on mem.Arena resolve here with no body to
		// prove; both are reads. Concrete pool/hub methods carry facts and
		// never reach this table.
		if fn.Signature().Recv() != nil {
			if _, ok := fn.Signature().Recv().Type().Underlying().(*types.Interface); ok {
				if name == "Hdr" || name == "Valid" {
					return wlPure
				}
			}
		}
	}
	return wlUnknown
}

func calleeName(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// isLocal reports whether storing through expr touches only memory a
// restarted operation would re-initialize: variables declared inside the
// unit, fields of such variables held by value, elements of local arrays.
// Anything reached through a pointer, slice, map, global, or captured
// variable is shared.
func (c *Checker) isLocal(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return true
		}
		obj := c.Info.ObjectOf(e)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		return v.Pos() >= c.Unit.Pos() && v.Pos() <= c.Unit.End()
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := c.Info.ObjectOf(id).(*types.PkgName); isPkg {
				return false // pkg.Global
			}
		}
		if t := c.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Pointer); ok {
				return false
			}
		}
		return c.isLocal(e.X)
	case *ast.IndexExpr:
		if t := c.Info.TypeOf(e.X); t != nil {
			if _, ok := t.Underlying().(*types.Array); ok {
				return c.isLocal(e.X)
			}
		}
		return false
	case *ast.StarExpr:
		return false
	}
	return false
}
