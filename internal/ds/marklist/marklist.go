// Package marklist is Harris's sorted linked list with the deletion mark on
// the link (HL01), written once: the record, its barriered copy, the link
// re-read and CAS, the Φread traversal that collects a marked chain
// (Algorithm 3 of the paper, §5.2), the splice that unlinks and retires the
// chain, and the insert-link and mark-and-unlink write steps. harrislist,
// hmlist and hashmap embed a List and keep only what is theirs: the
// BeginRead/Reserve/EndRead brackets around Traverse (each structure reserves
// its own set), Michael's one-node-at-a-time find, and the hash map's table.
//
// A node is logically deleted when the mark bit of its *next* field is set.
// Records are ordered by (Key, Sub): Key is in the record, Sub is the
// record-owned word of the slot header the allocator already puts in front
// of every record (mem.Gen.Word; DESIGN.md §4), so a record is 16 bytes and a
// slot 24. The plain lists leave Sub 0; the hash map keeps there the one bit
// of a user key its split-order Key cannot hold.
package marklist

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Node is a list record. Both fields are accessed atomically: records are
// recycled by the pool while stale readers may still copy them.
type Node struct {
	Key  uint64
	Next uint64 // mem.Ptr | mark
}

// View is the snapshot Read takes of a record and its header word.
type View struct {
	Key  uint64
	Sub  uint32
	Next mem.Ptr // raw: may carry the mark bit
}

// viewOf copies a record and its header word; the caller validates the
// handle afterwards (Read) or is quiescent (Walk).
func viewOf(n *Node, hdr *mem.Gen) View {
	return View{Key: atomic.LoadUint64(&n.Key), Sub: hdr.Word.Load(), Next: mem.Ptr(atomic.LoadUint64(&n.Next))}
}

// Before reports whether v sorts strictly before (key, sub).
func (v View) Before(key uint64, sub uint32) bool {
	return v.Key < key || (v.Key == key && v.Sub < sub)
}

// List is the list proper: a pool of nodes between two sentinels, and the
// per-thread buffers a traversal collects its marked chain into.
type List struct {
	Pool       *mem.Pool[Node]
	Head, Tail mem.Ptr
	scratch    [][]mem.Ptr
}

// New builds an empty list, (MinKey, 0) → (MaxKey, max), over a pool built
// from cfg; a shared-arena runtime passes its arena tag in cfg.Tag so a
// mem.Hub can route frees back here.
func New(cfg mem.Config) List {
	l := List{Pool: mem.NewPool[Node](cfg), scratch: ds.NewRetireScratch(cfg.MaxThreads)}
	l.Tail = l.NewNode(0, ds.MaxKey, ^uint32(0), mem.Null)
	l.Head = l.NewNode(0, ds.MinKey, 0, l.Tail)
	return l
}

// Arena exposes the list's allocator to reclamation schemes.
func (l *List) Arena() mem.Arena { return l.Pool }

// MemStats reports allocator statistics.
func (l *List) MemStats() mem.Stats { return l.Pool.Stats() }

// NewNode allocates a record and initialises both fields and its header
// word — for every record: the pool never writes that word, so a recycled
// slot still holds its previous occupant's. The caller publishes the handle.
func (l *List) NewNode(tid int, key uint64, sub uint32, next mem.Ptr) mem.Ptr {
	p, n, hdr := l.Pool.AllocSlot(tid)
	atomic.StoreUint64(&n.Key, key)
	atomic.StoreUint64(&n.Next, uint64(next))
	hdr.Word.Store(sub)
	return p
}

// Read is the barriered copy of a record: Protect (announce/poll) first, copy
// every field, then re-validate the handle generation through the same slot
// resolution. A failed check reports !ok under the validating schemes and
// does not return under the others (smr.Barrier.Stale).
func (l *List) Read(b *smr.Barrier, slot int, p mem.Ptr) (View, bool) {
	b.Protect(slot, p)
	n, gen := l.Pool.Slot(p)
	v := viewOf(n, gen)
	if !gen.Is(p) {
		return View{}, b.Stale(p)
	}
	return v, true
}

// Link re-reads a protected node's link (validation and write phases).
func (l *List) Link(g smr.Guard, p mem.Ptr) mem.Ptr {
	n, gen := l.Pool.Slot(p)
	v := mem.Ptr(atomic.LoadUint64(&n.Next))
	if !gen.Is(p) {
		g.OnStale(p)
	}
	return v
}

// CasLink CASes a reserved/protected node's link.
func (l *List) CasLink(p mem.Ptr, old, new mem.Ptr) bool {
	return atomic.CompareAndSwapUint64(&l.Pool.MustGet(p).Next, uint64(old), uint64(new))
}

// scratchReset empties the per-thread marked-chain buffer.
//
//nbr:restartable — the buffer is private to this Tid and a neutralization restart's first action is another reset, so a torn write is unobservable
func scratchReset(s *[]mem.Ptr) { *s = (*s)[:0] }

// scratchPush records one marked node for the post-phase RetireBatch.
//
//nbr:restartable — appends to Tid-private storage that the restart path resets; growth allocates, which is safe under the panic-based neutralization this repo simulates (no signal handler to longjmp over the allocator)
func scratchPush(s *[]mem.Ptr, p mem.Ptr) { *s = append(*s, p) }

// Traverse is the body of Algorithm 3's search read phase, from start (a
// sentinel or a bucket dummy: never freed, never marked) to the unmarked pair
// (left, right) bracketing (key, sub). The caller has opened the phase and
// closes it, reserving left and right; leftNext is left's link as read, and
// the marked chain [leftNext, right) sits in the thread's scratch for Splice.
// found reports that right holds exactly (key, sub); right may be the tail.
// !ok means a validation failed and the phase must restart from its root.
//
// Slot discipline: left stays announced in slot 0; the cursor alternates
// slots 1 and 2, so right is in one of them.
func (l *List) Traverse(g smr.Guard, b *smr.Barrier, start mem.Ptr, key uint64, sub uint32) (left, leftNext, right mem.Ptr, found, ok bool) {
	scratch := &l.scratch[g.Tid()]
	t := start
	tV, _ := l.Read(b, 0, t)
	slot := 1
	for {
		if !tV.Next.Marked() {
			left, leftNext = t, tV.Next
			b.Protect(0, left) // left already covered; renew slot 0
			scratchReset(scratch)
		} else {
			scratchPush(scratch, t)
		}
		next := tV.Next.Unmarked()
		if next == l.Tail {
			return left, leftNext, next, false, true
		}
		// Validate through left, not t: a marked t's link is frozen, so it
		// still names next after the chain is spliced out and retired. Every
		// record between left and next is marked, so an unchanged link on
		// left proves next was reachable after its Protect.
		nV, live := l.Read(b, slot, next)
		if !live || (b.NeedsValidation() && l.Link(g, left) != leftNext) {
			return mem.Null, mem.Null, mem.Null, false, false
		}
		t, tV = next, nV
		slot ^= 3 // alternate 1 <-> 2
		if !tV.Next.Marked() && !tV.Before(key, sub) {
			return left, leftNext, t, tV.Key == key && tV.Sub == sub, true
		}
	}
}

// Splice is the auxiliary write phase after Traverse's endΦread: unlink the
// marked chain [leftNext, right) with one CAS on left — the winner retires
// the whole chain in one batch — then re-check right. false sends the caller
// back to a fresh read phase: the CAS lost, or right got marked meanwhile.
func (l *List) Splice(g smr.Guard, left, leftNext, right mem.Ptr) bool {
	if leftNext != right {
		if !l.CasLink(left, leftNext, right) {
			return false
		}
		g.RetireBatch(l.scratch[g.Tid()])
	}
	return right == l.Tail || !l.Link(g, right).Marked()
}

// Insert links a fresh (key, sub) record between the reserved, adjacent left
// and right and returns it, or Null when the link CAS lost. Allocation is
// legal here: the thread is non-restartable after the search's endΦread. A
// loser's record was never published and is freed directly.
func (l *List) Insert(g smr.Guard, left, right mem.Ptr, key uint64, sub uint32) mem.Ptr {
	np := l.NewNode(g.Tid(), key, sub, right)
	g.OnAlloc(np)
	if !l.CasLink(left, right, np) {
		l.Pool.Free(g.Tid(), np)
		return mem.Null
	}
	return np
}

// Delete marks the reserved right — the linearization point — then tries the
// physical unlink from left once; on failure the node is left for a later
// search to unlink and retire. (Opening a fresh read phase here would let a
// neutralization re-run the operation after its commit point.) false means
// nothing was committed — another deleter got there first or the link moved —
// and the caller searches again.
func (l *List) Delete(g smr.Guard, left, right mem.Ptr) bool {
	succ := l.Link(g, right)
	if succ.Marked() || !l.CasLink(right, succ, succ.WithMark()) {
		return false
	}
	if l.CasLink(left, right, succ) {
		g.Retire(right)
	}
	return true
}

// Walk visits every unmarked node strictly between the sentinels, in list
// order (quiescent), checking on the way that every reachable handle is live,
// that the unmarked nodes are strictly increasing in (Key, Sub) and that the
// tail is reached.
func (l *List) Walk(visit func(p mem.Ptr, v View)) error {
	prev := View{Key: ds.MinKey}
	for p := mem.Ptr(atomic.LoadUint64(&l.Pool.Raw(l.Head).Next)); p != l.Tail; {
		if p.IsNull() {
			return errors.New("marklist: reachable nil before tail")
		}
		n, hdr := l.Pool.Slot(p)
		if !hdr.Is(p) {
			return fmt.Errorf("marklist: freed node %v reachable", p)
		}
		v := viewOf(n, hdr)
		if !v.Next.Marked() {
			if !prev.Before(v.Key, v.Sub) {
				return fmt.Errorf("marklist: order violated ((%d,%d) after (%d,%d))", v.Key, v.Sub, prev.Key, prev.Sub)
			}
			prev = v
			if visit != nil {
				visit(p, v)
			}
		}
		p = v.Next.Unmarked()
	}
	return nil
}

// Len counts the unmarked nodes (quiescent).
func (l *List) Len() (n int) {
	l.Walk(func(mem.Ptr, View) { n++ })
	return n
}

// Validate checks Walk's invariants (quiescent).
func (l *List) Validate() error { return l.Walk(nil) }

// MarkWhere sets the mark bit on every unmarked node pred accepts *without*
// the physical unlink — exactly the state logically deleted nodes are in
// before any search helps — and returns how many it marked (quiescent). The
// garbage-bound suites build oversized splice inputs with it: the next search
// past a run of n marked nodes splices all n with one CAS and hands them to
// the scheme in a single RetireBatch.
func (l *List) MarkWhere(pred func(key uint64, sub uint32) bool) (marked int) {
	l.Walk(func(p mem.Ptr, v View) {
		if pred(v.Key, v.Sub) && l.CasLink(p, v.Next, v.Next.WithMark()) {
			marked++
		}
	})
	return marked
}
