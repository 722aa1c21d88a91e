// Package records is the recordatomic analyzer's corpus: fields of types
// instantiated as pool records — through mem.NewPool, mem.NewPair, or as the
// type argument of a mem.Pool — touched plainly, and the atomic shapes that
// are allowed; plus a look-alike that is not a record.
package records

import (
	"sync/atomic"
	"unsafe"

	"nbr/internal/mem"
)

type node struct {
	key   uint64
	next  uint64
	keys  [4]uint64
	inner struct{ a uint64 }
	ver   atomic.Uint64
}

type router struct{ left, right uint64 }

type leaf struct{ key uint64 }

// held is a record only through the type of a field: a mem.Pool[held].
type held struct{ x uint64 }

// view has a node's field names but lives on the heap or the stack.
type view struct{ key, next uint64 }

type list struct {
	pool  *mem.Pool[node]
	held  *mem.Pool[held]
	leafs *mem.Pool[leaf]
}

func newList() *list {
	_, _, leafs := mem.NewPair[router, leaf](mem.Config{})
	return &list{pool: mem.NewPool[node](mem.Config{}), leafs: leafs}
}

// atomics are every allowed shape: the field, an array element or a nested
// field, each addressed and passed to sync/atomic; a typed atomic's method;
// and the unsafe operators that read no memory.
func (l *list) atomics(p mem.Ptr, i int) uint64 {
	n := l.pool.Raw(p)
	atomic.StoreUint64(&n.next, 0)
	atomic.StoreUint64(&n.keys[i], 1)
	n.ver.Add(1)
	_ = unsafe.Offsetof(n.inner)
	return atomic.LoadUint64(&n.key) + atomic.LoadUint64(&(n.inner.a)) + n.ver.Load()
}

// plain touches record fields without an atomic.
func (l *list) plain(p mem.Ptr, i int) uint64 {
	n := l.pool.Raw(p)
	n.next = 5    // want "plain access to field next of pool record node"
	n.keys[i]++   // want "plain access to field keys of pool record node"
	k := &n.key   // want "plain access to field key of pool record node"
	_ = n.inner.a // want "plain access to field inner of pool record node"
	v := view{key: atomic.LoadUint64(k)}
	v.next = v.key        // a view is not a record
	return n.key + v.next // want "plain access to field key of pool record node"
}

// kinds covers the other two ways a type becomes a record.
func (l *list) kinds(p mem.Ptr, r *router) uint64 {
	r.left = 0 // want "plain access to field left of pool record router"
	h := l.held.Raw(p)
	return l.leafs.Raw(p).key + h.x // want "plain access to field key of pool record leaf" "plain access to field x of pool record held"
}
