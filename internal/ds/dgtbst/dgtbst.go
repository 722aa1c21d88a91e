// Package dgtbst implements the external binary search tree with ticket
// locks of David, Guerraoui and Trigonakis (DGT15, "asynchronized
// concurrency"), the paper's representative tree workload (E1, Fig. 3a and
// Fig. 5).
//
// The tree is leaf-oriented: internal nodes only route (key k sends
// searches with key < k left), leaves hold the set. Searches are
// synchronization-free; an insert locks one node (the parent) and a delete
// locks two (grandparent and parent), validating the locked window before
// mutating — the exact "search Φread, then lock reserved records in Φwrite"
// shape NBR wants, with at most 3 reservations. DGT has no marked pointers,
// which is why Table 1 rules hazard pointers out (no reachability
// validation); like the paper's benchmark we run HP anyway using child-link
// re-reads plus the allocator's generation check.
package dgtbst

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// node is both internal and leaf record; a node is a leaf iff left == Null.
type node struct {
	key     uint64
	left    uint64 // mem.Ptr
	right   uint64 // mem.Ptr
	ticket  uint64 // ticket lock: [next:32 | owner:32]
	removed uint32
}

type view struct {
	key   uint64
	left  mem.Ptr
	right mem.Ptr
}

func (v view) leaf() bool { return v.left.IsNull() }

// Tree is a DGT external BST set. Keys must stay below ds.MaxKey-1 (the two
// largest values are the sentinel leaves).
type Tree struct {
	pool      *mem.Pool[node]
	root      mem.Ptr     // sentinel internal node; never removed
	retireBuf [][]mem.Ptr // per-thread RetireBatch scratch, reused across deletes
}

// New creates a tree sized for the given number of threads.
func New(threads int) *Tree {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a tree over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *Tree {
	t := &Tree{
		pool:      mem.NewPool[node](cfg),
		retireBuf: ds.NewRetireScratch(cfg.MaxThreads),
	}
	l1, n1 := t.pool.Alloc(0) // left sentinel leaf: MaxKey-1
	atomic.StoreUint64(&n1.key, ds.MaxKey-1)
	l2, n2 := t.pool.Alloc(0) // right sentinel leaf: MaxKey
	atomic.StoreUint64(&n2.key, ds.MaxKey)
	rp, rn := t.pool.Alloc(0)
	atomic.StoreUint64(&rn.key, ds.MaxKey-1)
	atomic.StoreUint64(&rn.left, uint64(l1))
	atomic.StoreUint64(&rn.right, uint64(l2))
	t.root = rp
	return t
}

// Arena exposes the tree's allocator to reclamation schemes.
func (t *Tree) Arena() mem.Arena { return t.pool }

// Requirements implements the per-DS width hook: the search keeps
// grandparent, parent and leaf protected in three rotating slots, and a
// delete reserves the same three records. The retire threshold is declared
// explicitly so the narrow slot width does not raise the hp/he scan
// frequency.
func (t *Tree) Requirements() ds.Requirements {
	return ds.Requirements{Slots: 3, Reservations: 3, Threshold: ds.DefaultThreshold}
}

// MemStats reports allocator statistics.
func (t *Tree) MemStats() mem.Stats { return t.pool.Stats() }

// read is the barriered copy of a record: Protect, copy every field, then
// re-validate the handle generation through the same slot resolution. A
// failed check reports !ok under the validating schemes and does not return
// under the others (smr.Barrier.Stale).
func (t *Tree) read(b *smr.Barrier, slot int, p mem.Ptr) (view, bool) {
	b.Protect(slot, p)
	n, gen := t.pool.Slot(p)
	var v view
	v.key = atomic.LoadUint64(&n.key)
	v.left = mem.Ptr(atomic.LoadUint64(&n.left))
	v.right = mem.Ptr(atomic.LoadUint64(&n.right))
	if !gen.Is(p) {
		return view{}, b.Stale(p)
	}
	return v, true
}

// validateChild is the HP/IBR reachability validation: it proves `next` was
// reachable through par (hence not yet retired) when the child link was
// re-read. The removed flag is set before a node is unlinked and never
// cleared, so loading it *after* the link makes the check sound: if par was
// not removed after the re-read, par was linked during it, and a linked
// parent's child is reachable. This flag is what stands in for the marks
// DGT15 lacks (Table 1's objection) — see the package comment.
func (t *Tree) validateChild(g smr.Guard, par mem.Ptr, goLeft bool, next mem.Ptr) bool {
	n, gen := t.pool.Slot(par)
	var c mem.Ptr
	if goLeft {
		c = mem.Ptr(atomic.LoadUint64(&n.left))
	} else {
		c = mem.Ptr(atomic.LoadUint64(&n.right))
	}
	rm := atomic.LoadUint32(&n.removed) != 0
	if !gen.Is(par) {
		g.OnStale(par)
	}
	return c == next && !rm
}

// search descends to a leaf, keeping the grandparent, parent and leaf
// protected in slots 0, 1, 2 (rotating). On return the read phase is still
// open. gpar is Null only when the leaf hangs directly off the root.
func (t *Tree) search(g smr.Guard, b *smr.Barrier, key uint64) (gpar, par, leaf mem.Ptr, gparV, parV, leafV view) {
retry:
	g.BeginRead()
	gpar, par = mem.Null, mem.Null
	cur := t.root
	curV, _ := t.read(b, 0, cur) // the root sentinel is never freed
	slot := 0
	for !curV.leaf() {
		gpar, gparV = par, parV
		par, parV = cur, curV
		goLeft := key < curV.key
		next := curV.left
		if !goLeft {
			next = curV.right
		}
		slot = (slot + 1) % 3
		nv, ok := t.read(b, slot, next)
		if !ok {
			goto retry
		}
		if b.NeedsValidation() && !t.validateChild(g, par, goLeft, next) {
			goto retry
		}
		cur, curV = next, nv
	}
	leaf, leafV = cur, curV
	return
}

// lock acquires a node's ticket lock (FAA for the ticket, spin on owner).
// The node must be protected; MustGet asserts it.
func (t *Tree) lock(p mem.Ptr) *node {
	n := t.pool.MustGet(p)
	ticket := (atomic.AddUint64(&n.ticket, 1<<32) >> 32) - 1
	for i := 0; atomic.LoadUint64(&n.ticket)&0xffffffff != ticket; i++ {
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	return n
}

func (t *Tree) unlock(n *node) {
	atomic.AddUint64(&n.ticket, 1)
}

func removed(n *node) bool { return atomic.LoadUint32(&n.removed) != 0 }

func childOf(n *node, goLeft bool) mem.Ptr {
	if goLeft {
		return mem.Ptr(atomic.LoadUint64(&n.left))
	}
	return mem.Ptr(atomic.LoadUint64(&n.right))
}

func setChild(n *node, goLeft bool, c mem.Ptr) {
	if goLeft {
		atomic.StoreUint64(&n.left, uint64(c))
	} else {
		atomic.StoreUint64(&n.right, uint64(c))
	}
}

// Contains implements ds.Set: a pure read phase.
func (t *Tree) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, _, _, _, leafV := t.search(g, &b, key)
		g.EndRead()
		return leafV.key == key
	})
}

// Insert implements ds.Set: one lock (parent), replacing the leaf with a
// routing node over {leaf, new leaf}.
func (t *Tree) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			_, par, leaf, _, parV, leafV := t.search(g, &b, key)
			if leafV.key == key {
				g.EndRead()
				return false
			}
			g.Reserve(0, par)
			g.Reserve(1, leaf)
			g.EndRead()
			goLeft := key < parV.key
			pn := t.lock(par)
			if removed(pn) || childOf(pn, goLeft) != leaf {
				t.unlock(pn)
				continue // fresh read phase from the root
			}
			// Build leaf' and the router in the write phase.
			lp, ln := t.pool.Alloc(g.Tid())
			atomic.StoreUint64(&ln.key, key)
			atomic.StoreUint64(&ln.left, uint64(mem.Null))
			atomic.StoreUint64(&ln.right, uint64(mem.Null))
			atomic.StoreUint64(&ln.ticket, 0)
			atomic.StoreUint32(&ln.removed, 0)
			g.OnAlloc(lp)

			ip, in := t.pool.Alloc(g.Tid())
			if key < leafV.key {
				atomic.StoreUint64(&in.key, leafV.key)
				atomic.StoreUint64(&in.left, uint64(lp))
				atomic.StoreUint64(&in.right, uint64(leaf))
			} else {
				atomic.StoreUint64(&in.key, key)
				atomic.StoreUint64(&in.left, uint64(leaf))
				atomic.StoreUint64(&in.right, uint64(lp))
			}
			atomic.StoreUint64(&in.ticket, 0)
			atomic.StoreUint32(&in.removed, 0)
			g.OnAlloc(ip)

			setChild(pn, goLeft, ip)
			t.unlock(pn)
			return true
		}
	})
}

// Delete implements ds.Set: two locks (grandparent, parent), splicing the
// sibling into the grandparent and retiring parent and leaf.
func (t *Tree) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			gpar, par, leaf, gparV, parV, leafV := t.search(g, &b, key)
			if leafV.key != key {
				g.EndRead()
				return false
			}
			if gpar.IsNull() {
				// The leaf hangs off the root sentinel; only the sentinel
				// leaves do, and their keys are outside the user range.
				g.EndRead()
				return false
			}
			g.Reserve(0, gpar)
			g.Reserve(1, par)
			g.Reserve(2, leaf)
			g.EndRead()
			gLeft := key < gparV.key
			pLeft := key < parV.key
			gn := t.lock(gpar)
			pn := t.lock(par)
			if removed(gn) || removed(pn) ||
				childOf(gn, gLeft) != par || childOf(pn, pLeft) != leaf {
				t.unlock(pn)
				t.unlock(gn)
				continue
			}
			sibling := childOf(pn, !pLeft)
			atomic.StoreUint32(&pn.removed, 1)
			ln := t.pool.MustGet(leaf)
			atomic.StoreUint32(&ln.removed, 1)
			setChild(gn, gLeft, sibling)
			t.unlock(pn)
			t.unlock(gn)
			// The spliced-out subtree (router + leaf) goes to the scheme in
			// one batch: one watermark check for the whole unlink (the
			// scratch handoff is alloc-free — see ds.NewRetireScratch).
			g.RetireBatch(append(t.retireBuf[g.Tid()][:0], par, leaf))
			return true
		}
	})
}

// Len implements ds.Set (quiescent): counts non-sentinel leaves.
func (t *Tree) Len() int {
	return t.count(t.root)
}

func (t *Tree) count(p mem.Ptr) int {
	n := t.pool.Raw(p)
	l := mem.Ptr(atomic.LoadUint64(&n.left))
	if l.IsNull() {
		if k := atomic.LoadUint64(&n.key); k < ds.MaxKey-1 {
			return 1
		}
		return 0
	}
	r := mem.Ptr(atomic.LoadUint64(&n.right))
	return t.count(l) + t.count(r)
}

// Validate implements ds.Set (quiescent): external-tree shape, routing
// invariants and handle liveness.
func (t *Tree) Validate() error {
	return t.validate(t.root, ds.MinKey, ds.MaxKey)
}

func (t *Tree) validate(p mem.Ptr, lo, hi uint64) error {
	if p.IsNull() {
		return errors.New("dgtbst: nil child reachable")
	}
	n, ok := t.pool.Get(p)
	if !ok {
		return fmt.Errorf("dgtbst: freed node %v reachable", p)
	}
	k := atomic.LoadUint64(&n.key)
	if k < lo || k > hi {
		return fmt.Errorf("dgtbst: key %d outside routing window [%d, %d]", k, lo, hi)
	}
	if removed(n) {
		return fmt.Errorf("dgtbst: removed node %d still reachable", k)
	}
	l := mem.Ptr(atomic.LoadUint64(&n.left))
	r := mem.Ptr(atomic.LoadUint64(&n.right))
	if l.IsNull() != r.IsNull() {
		return fmt.Errorf("dgtbst: node %d has exactly one child (external tree)", k)
	}
	if l.IsNull() {
		return nil
	}
	// Routing: key < node.key goes left. Leaf keys left of k are strictly
	// smaller, but router keys may equal k at the sentinel edge (the
	// infinity router duplicates its key, as in NM14-style external BSTs),
	// so the windows are inclusive on both boundaries.
	if err := t.validate(l, lo, k); err != nil {
		return err
	}
	return t.validate(r, k, hi)
}
