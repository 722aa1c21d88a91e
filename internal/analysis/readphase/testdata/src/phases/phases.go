// Package phases is the readphase analyzer's corpus: a Harris-list-shaped
// structure whose read phases commit each class of non-restartable sin, plus
// the clean traversal and annotation patterns they should reduce to.
// Expectations live in the want comments (checked by atest); the package is
// never executed.
package phases

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"nbr/internal/mem"
	"nbr/internal/smr"
)

type node struct {
	key  uint64
	next uint64
}

type list struct {
	pool    *mem.Pool[node]
	head    mem.Ptr
	mu      sync.Mutex
	size    atomic.Int64
	scratch [][]mem.Ptr
}

// searchAlloc allocates mid-traversal: a neutralization restart abandons
// the slice and re-runs the allocation, unbounded under contention.
func (l *list) searchAlloc(g smr.Guard, key uint64) mem.Ptr {
	g.BeginRead()
	t := l.head
	path := make([]mem.Ptr, 0, 8) // want "make allocates in read phase"
	for t != mem.Null {
		n := l.pool.Raw(t)
		path = append(path, t) // want "append may grow \\(allocate\\) in read phase"
		if n.key >= key {
			break
		}
		t = mem.Ptr(atomic.LoadUint64(&n.next))
	}
	g.Reserve(0, t)
	g.EndRead()
	_ = path
	return t
}

// searchLocked takes the structure lock inside the read phase: the restart
// would re-acquire a lock the abandoned run never released.
func (l *list) searchLocked(g smr.Guard, key uint64) bool {
	g.BeginRead()
	l.mu.Lock() // want "Mutex.Lock in read phase: lock/synchronization ops are not restartable"
	n := l.pool.Raw(l.head)
	found := n.key == key
	l.mu.Unlock() // want "Mutex.Unlock in read phase"
	g.EndRead()
	return found
}

// searchCount bumps a shared counter mid-phase: the restart double-counts.
func (l *list) searchCount(g smr.Guard) {
	g.BeginRead()
	l.size.Add(1) // want "Int64.Add is a shared-memory write"
	g.EndRead()
}

// searchPatch stores through a record pointer mid-phase.
func (l *list) searchPatch(g smr.Guard, p mem.Ptr) {
	g.BeginRead()
	n := l.pool.Raw(p)
	n.key = 0 // want "write to shared memory in read phase"
	g.EndRead()
}

// searchNotify performs channel and defer operations inside the phase.
func (l *list) searchNotify(g smr.Guard, done chan struct{}) {
	g.BeginRead()
	done <- struct{}{} // want "channel send in read phase"
	defer g.EndOp()    // want "defer in read phase"
	g.EndRead()
}

// audit is not restartable (it locks) and carries no annotation.
func (l *list) audit() int {
	l.mu.Lock()
	n := 1
	l.mu.Unlock()
	return n
}

// searchAudit calls a function the fact pass cannot prove restartable.
func (l *list) searchAudit(g smr.Guard) {
	g.BeginRead()
	_ = l.audit() // want "call to list.audit in read phase: not restartable"
	g.EndRead()
}

// search is the clean Harris-style traversal: copy-validate reads, slot
// protection, reservation before EndRead — every operation restartable.
func (l *list) search(g smr.Guard, key uint64) (mem.Ptr, bool) {
	g.BeginRead()
	t := l.head
	g.Protect(0, t)
	var k uint64
	for t != mem.Null {
		n := l.pool.Raw(t)
		k = n.key
		next := mem.Ptr(atomic.LoadUint64(&n.next))
		if !l.pool.Valid(t) {
			g.OnStale(t)
		}
		if k >= key {
			break
		}
		t = next
		g.Protect(1, t)
	}
	g.Reserve(0, t)
	g.EndRead()
	return t, k == key
}

// read is the structures' barriered copy on the per-operation barrier: the
// inlined poll, one slot resolution, the copy, the generation re-check and
// the shared stale tail. Nothing in it needs an annotation.
func (l *list) read(b *smr.Barrier, slot int, p mem.Ptr) (uint64, mem.Ptr, bool) {
	b.Protect(slot, p)
	n, gen := l.pool.Slot(p)
	k := n.key
	next := mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		return 0, mem.Null, b.Stale(p)
	}
	return k, next, true
}

// searchBarrier is search on the barrier: the helper above is proven
// restartable, and the barrier's own methods are protocol vocabulary.
func (l *list) searchBarrier(g smr.Guard, b *smr.Barrier, key uint64) (mem.Ptr, bool) {
retry:
	g.BeginRead()
	t, slot := l.head, 0
	for t != mem.Null {
		k, next, ok := l.read(b, slot, t)
		if !ok {
			goto retry
		}
		if b.NeedsValidation() && !l.pool.Valid(t) {
			goto retry
		}
		if k >= key {
			g.Reserve(0, t)
			g.EndRead()
			return t, k == key
		}
		t, slot = next, slot^1
	}
	g.EndRead()
	return mem.Null, false
}

// searchResolveInside resolves the barrier inside the phase it serves. The
// resolution asks the guard for its poll words through an optional interface
// no proof can see into, and it belongs before the phase anyway: once per
// operation, not once per restart.
func (l *list) searchResolveInside(g smr.Guard) {
	g.BeginRead()
	b := smr.BarrierOf(g) // want "call to smr.BarrierOf in read phase: not restartable"
	b.Protect(0, l.head)
	g.EndRead()
}

// pushScratch appends to this thread's private marked-chain buffer.
//
//nbr:restartable — the buffer is Tid-private and the restart path resets it, so a torn append is unobservable
func (l *list) pushScratch(tid int, p mem.Ptr) {
	l.scratch[tid] = append(l.scratch[tid], p)
}

// searchScratch uses the annotated helper inside the phase: clean.
func (l *list) searchScratch(g smr.Guard, p mem.Ptr) {
	g.BeginRead()
	l.pushScratch(g.Tid(), p)
	g.EndRead()
}

// keyOf reads one field; the proof sees straight through it, so the
// annotation is stale weight the analyzer tells you to delete.
//
//nbr:restartable — stale on purpose: the corpus wants the redundancy diagnosed.
func (l *list) keyOf(p mem.Ptr) uint64 { // want "redundant //nbr:restartable: keyOf is provably restartable"
	return l.pool.Raw(p).key
}

// searchStride walks words laid out at a fixed stride, as a pool resolves a
// slot: unsafe.Add is address arithmetic, as pure in a read phase as a
// conversion.
func (l *list) searchStride(g smr.Guard, base unsafe.Pointer, n int) uint64 {
	g.BeginRead()
	var sum uint64
	for i := 0; i < n; i++ {
		sum += atomic.LoadUint64((*uint64)(unsafe.Add(base, i*8)))
	}
	g.EndRead()
	return sum
}
