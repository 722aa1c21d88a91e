// Package harrislist implements Harris's lock-free linked list (HL01), the
// paper's example of a data structure with multiple read/write phases
// (§5.2, Algorithm 3): the search may unlink a chain of marked nodes (an
// auxiliary write phase) and then restarts from the root, beginning a fresh
// read phase — exactly the pattern NBR requires (Requirement 12), with left
// and right reserved before each unlink CAS (Requirement 13).
//
// A node is logically deleted when the mark bit of its *next pointer* is
// set. Unlinking splices a whole marked chain with one CAS on an unmarked
// predecessor; the splicing thread retires the chain (collected during the
// read phase into a per-thread scratch buffer that neutralization simply
// discards).
package harrislist

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// node is a list record; the mark bit lives on next.
type node struct {
	key  uint64
	next uint64 // mem.Ptr | mark
}

type view struct {
	key  uint64
	next mem.Ptr // raw: may carry the mark bit
}

// List is a Harris lock-free list set.
type List struct {
	pool    *mem.Pool[node]
	head    mem.Ptr
	tail    mem.Ptr
	scratch [][]mem.Ptr // per-thread marked-chain collection buffers
}

// New creates a list sized for the given number of threads.
func New(threads int) *List {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a list over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *List {
	l := &List{
		pool:    mem.NewPool[node](cfg),
		scratch: make([][]mem.Ptr, cfg.MaxThreads),
	}
	tp, tn := l.pool.Alloc(0)
	atomic.StoreUint64(&tn.key, ds.MaxKey)
	atomic.StoreUint64(&tn.next, uint64(mem.Null))
	hp, hn := l.pool.Alloc(0)
	atomic.StoreUint64(&hn.key, ds.MinKey)
	atomic.StoreUint64(&hn.next, uint64(tp))
	l.head, l.tail = hp, tp
	return l
}

// Arena exposes the list's allocator to reclamation schemes.
func (l *List) Arena() mem.Arena { return l.pool }

// Requirements implements the per-DS width hook: left holds slot 0 while
// the cursor alternates slots 1 and 2; only left and right are reserved
// (Algorithm 3 line 31). The retire threshold is declared explicitly so the
// narrow slot width does not raise the hp/he scan frequency.
func (l *List) Requirements() ds.Requirements {
	return ds.Requirements{Slots: 3, Reservations: 2, Threshold: ds.DefaultThreshold}
}

// MemStats reports allocator statistics.
func (l *List) MemStats() mem.Stats { return l.pool.Stats() }

// read is the barriered copy (see lazylist.read for the protocol).
func (l *List) read(b *smr.Barrier, slot int, p mem.Ptr) (view, bool) {
	b.Protect(slot, p)
	n, gen := l.pool.Slot(p)
	var v view
	v.key = atomic.LoadUint64(&n.key)
	v.next = mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		return view{}, b.Stale(p)
	}
	return v, true
}

// rawNext re-reads a protected node's link (validation and write phases).
func (l *List) rawNext(g smr.Guard, p mem.Ptr) mem.Ptr {
	n, gen := l.pool.Slot(p)
	v := mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		g.OnStale(p)
	}
	return v
}

// casNext CASes a reserved/protected node's link.
func (l *List) casNext(p mem.Ptr, old, new mem.Ptr) bool {
	n := l.pool.MustGet(p)
	return atomic.CompareAndSwapUint64(&n.next, uint64(old), uint64(new))
}

// scratchReset empties the per-thread marked-chain buffer.
//
//nbr:restartable — the buffer is private to this Tid and a neutralization restart's first action is another reset, so a torn write is unobservable
func scratchReset(s *[]mem.Ptr) { *s = (*s)[:0] }

// scratchPush records one marked node for the post-phase RetireBatch.
//
//nbr:restartable — appends to Tid-private storage that the restart path resets; growth allocates, which is safe under the panic-based neutralization this repo simulates (no signal handler to longjmp over the allocator)
func scratchPush(s *[]mem.Ptr, p mem.Ptr) { *s = append(*s, p) }

// search implements Algorithm 3's search: find the unmarked node pair
// (left, right) bracketing key, splicing out any marked chain in between.
// On return the read phase is closed with left and right reserved (slots 0
// and 1) and rightV is right's snapshot taken during the traversal.
//
// Slot discipline: left stays announced in slot 0; the traversal cursor
// alternates slots 1 and 2; right ends in slot 1 (re-announced if needed).
func (l *List) search(g smr.Guard, b *smr.Barrier, key uint64) (left, right mem.Ptr, rightV view) {
	scratch := &l.scratch[g.Tid()]
searchAgain:
	for {
		g.BeginRead()
		scratchReset(scratch)

		t := l.head
		tV, _ := l.read(b, 0, t) // head sentinel, never freed
		left, right = t, mem.Null
		leftNext := tV.next
		slot := 1

		// Traverse until an unmarked node with key ≥ target.
		for {
			if !tV.next.Marked() {
				left = t
				leftNext = tV.next
				b.Protect(0, left) // left already covered; renew slot 0
				scratchReset(scratch)
			} else {
				scratchPush(scratch, t)
			}
			next := tV.next.Unmarked()
			if next == l.tail {
				right = l.tail
				rightV = view{key: ds.MaxKey, next: mem.Null}
				break
			}
			nv, ok := l.read(b, slot, next)
			if !ok {
				continue searchAgain
			}
			if b.NeedsValidation() && l.rawNext(g, t).Unmarked() != next {
				continue searchAgain
			}
			t, tV = next, nv
			slot ^= 3 // alternate 1 <-> 2
			if !tV.next.Marked() && tV.key >= key {
				right = t
				rightV = tV
				break
			}
		}

		// endΦread(left, right) — Algorithm 3 line 31.
		g.Reserve(0, left)
		g.Reserve(1, right)
		g.EndRead()

		if leftNext == right {
			// Adjacent already; restart if right got marked meanwhile.
			if right != l.tail && l.rawNext(g, right).Marked() {
				continue searchAgain
			}
			return left, right, rightV
		}

		// Splice out the marked chain [leftNext, right) — the auxiliary
		// write phase. The winner retires the whole chain in one batch.
		if l.casNext(left, leftNext, right) {
			g.RetireBatch(*scratch)
			if right != l.tail && l.rawNext(g, right).Marked() {
				continue searchAgain
			}
			return left, right, rightV
		}
	}
}

// Contains implements ds.Set via a full search (which may help unlink).
func (l *List) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, right, rightV := l.search(g, &b, key)
		return right != l.tail && rightV.key == key
	})
}

// Insert implements ds.Set (Algorithm 3's insert).
func (l *List) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			left, right, rightV := l.search(g, &b, key)
			if right != l.tail && rightV.key == key {
				return false
			}
			// Write phase: allocate and link (allocation is legal here —
			// the thread is non-restartable after search's endΦread).
			np, nn := l.pool.Alloc(g.Tid())
			atomic.StoreUint64(&nn.key, key)
			atomic.StoreUint64(&nn.next, uint64(right))
			g.OnAlloc(np)
			if l.casNext(left, right, np) {
				return true
			}
			// Lost the race: the private node is unpublished, free it
			// directly and start a fresh read phase.
			l.pool.Free(g.Tid(), np)
		}
	})
}

// Delete implements ds.Set: logical mark CAS, then attempt the physical
// unlink; on failure the next search performs the unlink and retires.
func (l *List) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			left, right, rightV := l.search(g, &b, key)
			if right == l.tail || rightV.key != key {
				return false
			}
			succ := l.rawNext(g, right)
			if succ.Marked() {
				continue // another deleter got here first; help via search
			}
			if !l.casNext(right, succ, succ.WithMark()) {
				continue // link changed under us; retry from a fresh search
			}
			// The mark CAS is the linearization point. Try the physical
			// unlink once; on failure leave the node for a later search to
			// splice and retire. (Opening a fresh read phase here would let
			// a neutralization re-run the body after the commit point.)
			if l.casNext(left, right, succ) {
				g.Retire(right)
			}
			return true
		}
	})
}

// BuildMarkedChain deterministically prepares an oversized-splice input for
// the garbage-bound suites (quiescent; single-threaded): it inserts keys
// 1..n through the normal write path, then sets the mark bit on each node's
// next pointer *without* performing the physical unlink — exactly the state
// n logically deleted nodes are in before any search helps. The next search
// that traverses past the chain splices all n nodes with one CAS and hands
// them to the scheme in a single RetireBatch, so the batch-split watermark
// logic is exercised with a chain of chosen length on every run instead of
// relying on churn to produce one. Returns the number of nodes marked.
func (l *List) BuildMarkedChain(g smr.Guard, n int) int {
	for k := 1; k <= n; k++ {
		l.Insert(g, uint64(k))
	}
	marked := 0
	for p := l.next(l.head); p != l.tail; {
		nd := l.pool.Raw(p)
		k := atomic.LoadUint64(&nd.key)
		next := atomic.LoadUint64(&nd.next)
		if k >= 1 && k <= uint64(n) && !mem.Ptr(next).Marked() {
			if atomic.CompareAndSwapUint64(&nd.next, next, uint64(mem.Ptr(next).WithMark())) {
				marked++
			}
		}
		p = l.next(p)
	}
	return marked
}

// Len implements ds.Set (quiescent): counts unmarked nodes.
func (l *List) Len() int {
	n := 0
	for p := l.next(l.head); p != l.tail; {
		nd := l.pool.Raw(p)
		if !mem.Ptr(atomic.LoadUint64(&nd.next)).Marked() {
			n++
		}
		p = l.next(p)
	}
	return n
}

func (l *List) next(p mem.Ptr) mem.Ptr {
	return mem.Ptr(atomic.LoadUint64(&l.pool.Raw(p).next)).Unmarked()
}

// Validate implements ds.Set (quiescent): strictly sorted unmarked keys,
// valid handles, tail reachable.
func (l *List) Validate() error {
	prev := ds.MinKey
	p := l.next(l.head)
	for p != l.tail {
		if p.IsNull() {
			return errors.New("harrislist: reachable nil before tail")
		}
		n, ok := l.pool.Get(p)
		if !ok {
			return fmt.Errorf("harrislist: freed node %v reachable", p)
		}
		k := atomic.LoadUint64(&n.key)
		marked := mem.Ptr(atomic.LoadUint64(&n.next)).Marked()
		if !marked {
			if k <= prev {
				return fmt.Errorf("harrislist: keys not strictly increasing (%d after %d)", k, prev)
			}
			prev = k
		}
		p = l.next(p)
	}
	return nil
}
