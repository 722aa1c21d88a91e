// Package hmlist implements the Harris-Michael lock-free list (HM04) in two
// variants for the paper's E4 experiment:
//
//   - the original (NoRestart): after snipping a marked node during a
//     traversal, the search resumes from the predecessor. This violates
//     NBR's Requirement 12 (each Φread must restart from the root), so the
//     applicability matrix rejects it for NBR — it runs under the epoch and
//     pointer-based schemes only (Table 1's HM04 row);
//   - the E4 modification (Restart): every successful snip returns to the
//     head before searching again, which makes the list NBR-compatible and,
//     as E4 observes, can even act as a contention-managing backoff.
//
// As in Harris's list the mark bit lives on a node's next field; unlike
// Harris, unlinking proceeds one node at a time.
package hmlist

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Variant selects the E4 restart policy.
type Variant int

const (
	// Restart is the E4 modification: searches restart from the head after
	// every auxiliary unlink (NBR-compatible).
	Restart Variant = iota
	// NoRestart is Michael's original: searches continue from the
	// predecessor after a snip (NBR-incompatible).
	NoRestart
)

type node struct {
	key  uint64
	next uint64 // mem.Ptr | mark
}

// List is a Harris-Michael list set.
type List struct {
	pool    *mem.Pool[node]
	head    mem.Ptr
	tail    mem.Ptr
	variant Variant
}

// New creates a list with the given restart policy, sized for `threads`.
func New(threads int, v Variant) *List {
	return NewWith(mem.Config{MaxThreads: threads}, v)
}

// NewWith creates a list over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config, v Variant) *List {
	l := &List{pool: mem.NewPool[node](cfg), variant: v}
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

// Requirements implements the per-DS width hook: find alternates two
// Protect slots (prev/curr) and reserves the same pair. The retire
// threshold is declared explicitly so the narrow slot width does not raise
// the hp/he scan frequency.
func (l *List) Requirements() ds.Requirements {
	return ds.Requirements{Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold}
}

// MemStats reports allocator statistics.
func (l *List) MemStats() mem.Stats { return l.pool.Stats() }

type view struct {
	key  uint64
	next mem.Ptr // raw, may carry the mark bit
}

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

func (l *List) rawNext(g smr.Guard, p mem.Ptr) mem.Ptr {
	n, gen := l.pool.Slot(p)
	v := mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		g.OnStale(p)
	}
	return v
}

func (l *List) casNext(p mem.Ptr, old, new mem.Ptr) bool {
	n := l.pool.MustGet(p)
	return atomic.CompareAndSwapUint64(&n.next, uint64(old), uint64(new))
}

// find locates the unmarked (prev, curr) pair bracketing key, snipping
// marked nodes it encounters. On return the read phase is closed with prev
// and curr reserved, and found reports curr.key == key. curr may be the
// tail sentinel.
func (l *List) find(g smr.Guard, b *smr.Barrier, key uint64) (prev, curr mem.Ptr, currV view, found bool) {
tryAgain:
	for {
		g.BeginRead()
		prev = l.head
		prevV, _ := l.read(b, 0, prev)
		curr = prevV.next.Unmarked()
		prevSlot, currSlot := 0, 1
		for {
			if curr == l.tail {
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				return prev, curr, view{key: ds.MaxKey}, false
			}
			var ok bool
			currV, ok = l.read(b, currSlot, curr)
			if !ok {
				continue tryAgain
			}
			// Michael's validation: prev must still point at curr,
			// unmarked. Doubles as the HP/IBR reachability check, and is
			// needed by all schemes for correctness of the snip CAS.
			if l.rawNext(g, prev) != curr {
				continue tryAgain
			}
			if currV.next.Marked() {
				// curr is logically deleted: snip it (auxiliary Φwrite).
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				if !l.casNext(prev, curr, currV.next.Unmarked()) {
					continue tryAgain
				}
				g.Retire(curr)
				if l.variant == Restart {
					continue tryAgain // E4: back to the head (new Φread)
				}
				// Original HM04: resume from prev. Only reachable under
				// schemes without read phases (the matrix rejects NBR).
				g.BeginRead()
				b.Protect(prevSlot, prev)
				curr = l.rawNext(g, prev).Unmarked()
				continue
			}
			if currV.key >= key {
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				return prev, curr, currV, currV.key == key
			}
			prev, prevV = curr, currV
			prevSlot, currSlot = currSlot, prevSlot
			curr = currV.next.Unmarked()
		}
	}
}

// Contains implements ds.Set.
func (l *List) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, _, found := l.find(g, &b, key)
		return found
	})
}

// Insert implements ds.Set.
func (l *List) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			prev, curr, _, found := l.find(g, &b, key)
			if found {
				return false
			}
			np, nn := l.pool.Alloc(g.Tid()) // write phase: allocation legal
			atomic.StoreUint64(&nn.key, key)
			atomic.StoreUint64(&nn.next, uint64(curr))
			g.OnAlloc(np)
			if l.casNext(prev, curr, np) {
				return true
			}
			l.pool.Free(g.Tid(), np) // unpublished; free directly
		}
	})
}

// Delete implements ds.Set: mark curr (linearization), then try one snip.
func (l *List) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			prev, curr, currV, found := l.find(g, &b, key)
			if !found {
				return false
			}
			succ := currV.next // unmarked, else find would have snipped
			if !l.casNext(curr, succ, succ.WithMark()) {
				continue // raced another deleter or inserter; re-find
			}
			// Committed. One snip attempt; a later find retires otherwise.
			if l.casNext(prev, curr, succ) {
				g.Retire(curr)
			}
			return true
		}
	})
}

// Len implements ds.Set (quiescent).
func (l *List) Len() int {
	n := 0
	for p := l.next(l.head); p != l.tail; p = l.next(p) {
		if !mem.Ptr(atomic.LoadUint64(&l.pool.Raw(p).next)).Marked() {
			n++
		}
	}
	return n
}

func (l *List) next(p mem.Ptr) mem.Ptr {
	return mem.Ptr(atomic.LoadUint64(&l.pool.Raw(p).next)).Unmarked()
}

// Validate implements ds.Set (quiescent).
func (l *List) Validate() error {
	prev := ds.MinKey
	p := l.next(l.head)
	for p != l.tail {
		if p.IsNull() {
			return errors.New("hmlist: reachable nil before tail")
		}
		n, ok := l.pool.Get(p)
		if !ok {
			return fmt.Errorf("hmlist: freed node %v reachable", p)
		}
		k := atomic.LoadUint64(&n.key)
		if !mem.Ptr(atomic.LoadUint64(&n.next)).Marked() {
			if k <= prev {
				return fmt.Errorf("hmlist: keys not strictly increasing (%d after %d)", k, prev)
			}
			prev = k
		}
		p = l.next(p)
	}
	return nil
}
