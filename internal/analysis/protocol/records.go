package protocol

import (
	"go/types"

	"nbr/internal/analysis/framework"
)

// recordKey is the fact key marking a pool record type.
const recordKey = "record"

// markRecords records, for every named type this package instantiates as a
// pool record — a type argument of mem.NewPool, mem.NewPair or mem.Pool —
// that its values live in a pool's reservation, outside the Go heap. The fact
// pass runs it over every loaded package before any analyzer, so a record
// type instantiated in one package is known where another touches it.
func markRecords(pass *framework.Pass) {
	for id, inst := range pass.TypesInfo.Instances {
		obj := pass.TypesInfo.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != MemPath || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		switch obj.Name() {
		case "NewPool", "NewPair", "Pool":
		default:
			continue
		}
		for i := 0; i < inst.TypeArgs.Len(); i++ {
			if named, ok := types.Unalias(inst.TypeArgs.At(i)).(*types.Named); ok {
				pass.Facts.Set(named.Origin().Obj(), recordKey, true)
			}
		}
	}
}

// RecordType returns the pool record type t names, dereferencing one
// pointer, or nil if t is not one.
func RecordType(facts *framework.FactStore, t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || facts.Get(named.Origin().Obj(), recordKey) == nil {
		return nil
	}
	return named
}
