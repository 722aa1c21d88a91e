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
// validation); like the paper's benchmark we run HP anyway: the descent
// re-reads the link that led to each record, inline and through the parent's
// slot it already holds, then the parent's removed flag and the allocator's
// generation (search). The validation makes no call of its own; a descent of
// a 1024-key tree under hp costs about 22 ns per record on a 2-vCPU Xeon
// (BenchmarkReadBarrier/dgt/hp, the median of ten runs).
//
// Records come in two kinds, each in its own pool: a router is its key and
// two child links, 24 bytes, and a leaf is its key alone, 8 — a leaf never
// has children, so it carries no links. The per-node ticket lock and the
// removed flag are packed into the 32-bit record-owned word of the slot
// header the allocator already puts in front of every record, so a router's
// slot is 32 bytes and a leaf's 16 — resident memory is records × bytes, and
// the descent's cache misses are the same bytes (DESIGN.md §4). The kind
// travels in every handle (mem.Ptr.Kind), so the descent knows a child is a
// leaf before it loads it.
package dgtbst

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// router is an internal record. Its ticket lock and removed flag live in the
// slot header's record-owned word (mem.Gen.Word, laid out below), so a slot
// is 24 + 8 = 32 bytes: two per cache line, none straddling.
type router struct {
	key   uint64
	left  uint64 // mem.Ptr
	right uint64 // mem.Ptr
}

// leafNode is a set member. Only its removed flag is ever set in its header
// word (no operation locks a leaf), and its slot is 8 + 8 = 16 bytes.
type leafNode struct {
	key uint64
}

// leafKind is the record kind of a leaf's handle, the second of NewPair's
// pools; a router's is 0.
const leafKind = 1

func isLeaf(p mem.Ptr) bool { return p.Kind() == leafKind }

// Layout of a node's header word: [next:15 | unused:1 | owner:15 | removed:1].
// next is the ticket dispenser and owner the ticket being served; the lock
// is free iff they are equal. next sits at the top so its fetch-and-add
// wraps off the end of the word; owner is only ever bumped by the lock's
// holder, who knows its value and so wraps it without carrying (unlock).
// FIFO order holds while fewer than 1<<ticketBits threads wait on one node,
// which NewWith enforces.
const (
	removedBit = 1
	ticketBits = 15
	ticketMask = 1<<ticketBits - 1
	ownerShift = 1
	nextShift  = 32 - ticketBits
	// ownerWrap, added to the word, subtracts ticketMask from the owner field.
	ownerWrap = 1<<32 - ticketMask<<ownerShift
)

func owner(w uint32) uint32 { return w >> ownerShift & ticketMask }

// Tree is a DGT external BST set. Keys must stay below ds.MaxKey-1 (the two
// largest values are the sentinel leaves).
type Tree struct {
	routers   *mem.Pool[router]
	leaves    *mem.Pool[leafNode]
	arena     *mem.Pair   // routers and leaves as the one Arena schemes free into
	root      mem.Ptr     // sentinel router; never removed
	retireBuf [][]mem.Ptr // per-thread RetireBatch scratch, reused across deletes
}

// New creates a tree sized for the given number of threads.
func New(threads int) *Tree {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a tree over two pools built from cfg, one per record kind
// (mem.NewPair) — the constructor a shared-arena runtime uses,
// stamping its assigned arena tag (cfg.Tag) into every node handle so a
// mem.Hub can route frees back here.
//
// It panics if cfg.MaxThreads exceeds what a node's ticket lock can order
// (1<<15 - 1 threads).
func NewWith(cfg mem.Config) *Tree {
	if cfg.MaxThreads > ticketMask {
		panic(fmt.Sprintf("dgtbst: MaxThreads %d exceeds the %d threads a node's ticket lock can order", cfg.MaxThreads, ticketMask))
	}
	t := &Tree{retireBuf: ds.NewRetireScratch(cfg.MaxThreads)}
	t.arena, t.routers, t.leaves = mem.NewPair[router, leafNode](cfg)
	l1 := t.newLeaf(0, ds.MaxKey-1) // left sentinel leaf
	l2 := t.newLeaf(0, ds.MaxKey)   // right sentinel leaf
	t.root = t.newRouter(0, ds.MaxKey-1, l1, l2)
	return t
}

// newRouter allocates a router and initialises every field and its header
// word (lock free, not removed); the caller publishes the handle.
func (t *Tree) newRouter(tid int, key uint64, left, right mem.Ptr) mem.Ptr {
	p, n, hdr := t.routers.AllocSlot(tid)
	atomic.StoreUint64(&n.key, key)
	atomic.StoreUint64(&n.left, uint64(left))
	atomic.StoreUint64(&n.right, uint64(right))
	hdr.Word.Store(0)
	return p
}

// newLeaf is newRouter for a leaf.
func (t *Tree) newLeaf(tid int, key uint64) mem.Ptr {
	p, n, hdr := t.leaves.AllocSlot(tid)
	atomic.StoreUint64(&n.key, key)
	hdr.Word.Store(0)
	return p
}

// Arena exposes the tree's allocator to reclamation schemes: one Arena over
// both pools, routing on each handle's kind.
func (t *Tree) Arena() mem.Arena { return t.arena }

// Req is the width the tree declares: the search keeps grandparent, parent
// and leaf protected in three rotating slots, and a delete reserves the same
// three records. The retire threshold is declared explicitly so the narrow
// slot width does not raise the hp/he scan frequency.
var Req = ds.Requirements{Slots: 3, Reservations: 3, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (t *Tree) Requirements() ds.Requirements { return Req }

// MemStats reports allocator statistics, both pools summed (mem.Stats.Plus):
// SlotSize is 0, since routers and leaves have different ones.
func (t *Tree) MemStats() mem.Stats { return t.routers.Stats().Plus(t.leaves.Stats()) }

// search descends to a leaf, keeping the grandparent, parent and leaf
// protected in slots 0, 1, 2 (rotating), and returns them with their keys.
// On return the read phase is still open. gpar is Null only when the leaf
// hangs directly off the root.
//
// Each visited record is copied in the loop itself, with no call per record:
// Protect first, then the slot is resolved through the pool of the kind the
// handle names and every field copied, and then the generation is
// re-validated through the same slot. A failed check restarts the read phase
// under the validating schemes and does not return under the others
// (smr.Barrier.Stale). The descent stops at the first leaf. The root is the
// first router the loop copies; it is never freed and has no parent, so only
// its children are link-validated.
//
// Under a validating scheme (hp, he, ibr) the loop then proves the record
// was reachable — hence not yet retired — after its Protect, inline and
// through the parent's slot it already holds (pn, pgen), not a second
// resolution of the parent's handle: it re-loads the parent's two links and
// selects the child with the same borrow mask the descent took, then loads
// the parent's removed flag. The flag is set before a router is unlinked and
// never cleared, so loading it after the links makes the check sound: if the
// parent was not removed after the re-load, it was linked during it, and a
// linked parent's child is reachable. This flag is what stands in for the
// marks DGT15 lacks (Table 1's objection) — see the package comment. A
// parent slot that no longer holds its allocation goes to Guard.OnStale; a
// link that moved or a parent that was removed restarts the read phase. The
// epoch and NBR schemes never validate, and skip all of it.
//
// The child select is branch-free: the borrow of key - k is 1 exactly when
// key < k, and masks left over right. A descent's direction is a coin flip
// the predictor cannot learn, so a select that compiles to a jump costs a
// mispredict on about half the records of every search.
func (t *Tree) search(g smr.Guard, b *smr.Barrier, key uint64) (gpar, par, leaf mem.Ptr, gparKey, parKey, leafKey uint64) {
retry:
	g.BeginRead()
	gpar, par = mem.Null, mem.Null
	var pn *router // par's record and header, nil at the root
	var pgen *mem.Gen
	cur := t.root
	var borrow uint64 // 1 iff cur is par's left child
	for slot := 0; ; {
		b.Protect(slot, cur)
		if isLeaf(cur) {
			n, gen := t.leaves.Slot(cur)
			k := atomic.LoadUint64(&n.key)
			if !gen.Is(cur) {
				b.Stale(cur)
				goto retry
			}
			if b.NeedsValidation() {
				l, r := atomic.LoadUint64(&pn.left), atomic.LoadUint64(&pn.right)
				rm := removed(pgen)
				if !pgen.Is(par) {
					g.OnStale(par)
				}
				if mem.Ptr(r^(l^r)&-borrow) != cur || rm {
					goto retry
				}
			}
			return gpar, par, cur, gparKey, parKey, k
		}
		n, gen := t.routers.Slot(cur)
		k := atomic.LoadUint64(&n.key)
		left := atomic.LoadUint64(&n.left)
		right := atomic.LoadUint64(&n.right)
		if !gen.Is(cur) {
			b.Stale(cur)
			goto retry
		}
		if b.NeedsValidation() && pn != nil {
			l, r := atomic.LoadUint64(&pn.left), atomic.LoadUint64(&pn.right)
			rm := removed(pgen)
			if !pgen.Is(par) {
				g.OnStale(par)
			}
			if mem.Ptr(r^(l^r)&-borrow) != cur || rm {
				goto retry
			}
		}
		gpar, gparKey = par, parKey
		par, parKey, pn, pgen = cur, k, n, gen
		_, borrow = bits.Sub64(key, k, 0)
		cur = mem.Ptr(right ^ (left^right)&-borrow)
		if slot++; slot == 3 {
			slot = 0
		}
	}
}

// lock acquires a router's ticket lock (FAA for the ticket, spin on owner)
// and returns the router with its header. The router must be protected;
// MustSlot asserts it.
func (t *Tree) lock(p mem.Ptr) (*router, *mem.Gen) {
	n, hdr := t.routers.MustSlot(p)
	ticket := (hdr.Word.Add(1<<nextShift) - 1<<nextShift) >> nextShift
	for i := 0; owner(hdr.Word.Load()) != ticket; i++ {
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	return n, hdr
}

// unlock serves the next ticket. Only the holder writes the owner field, so
// the value read here is current: the bump is one add, and at the top of the
// field the add is the subtraction that zeroes it instead — neither touches
// a neighbouring bit.
func unlock(hdr *mem.Gen) {
	if owner(hdr.Word.Load()) == ticketMask {
		hdr.Word.Add(ownerWrap)
	} else {
		hdr.Word.Add(1 << ownerShift)
	}
}

func removed(hdr *mem.Gen) bool { return hdr.Word.Load()&removedBit != 0 }

// setRemoved flags a node as unlinked; the flag is never cleared while the
// record lives. The OR leaves waiters' tickets in the same word intact.
func setRemoved(hdr *mem.Gen) { hdr.Word.Or(removedBit) }

func childOf(n *router, goLeft bool) mem.Ptr {
	if goLeft {
		return mem.Ptr(atomic.LoadUint64(&n.left))
	}
	return mem.Ptr(atomic.LoadUint64(&n.right))
}

func setChild(n *router, goLeft bool, c mem.Ptr) {
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
		_, _, _, _, _, leafKey := t.search(g, &b, key)
		g.EndRead()
		return leafKey == key
	})
}

// Insert implements ds.Set: one lock (parent), replacing the leaf with a
// routing node over {leaf, new leaf}.
func (t *Tree) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			_, par, leaf, _, parKey, leafKey := t.search(g, &b, key)
			if leafKey == key {
				g.EndRead()
				return false
			}
			g.Reserve(0, par)
			g.Reserve(1, leaf)
			g.EndRead()
			goLeft := key < parKey
			pn, ph := t.lock(par)
			if removed(ph) || childOf(pn, goLeft) != leaf {
				unlock(ph)
				continue // fresh read phase from the root
			}
			// Build leaf' and the router in the write phase.
			lp := t.newLeaf(g.Tid(), key)
			g.OnAlloc(lp)
			var ip mem.Ptr
			if key < leafKey {
				ip = t.newRouter(g.Tid(), leafKey, lp, leaf)
			} else {
				ip = t.newRouter(g.Tid(), key, leaf, lp)
			}
			g.OnAlloc(ip)

			setChild(pn, goLeft, ip)
			unlock(ph)
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
			gpar, par, leaf, gparKey, parKey, leafKey := t.search(g, &b, key)
			if leafKey != key {
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
			gLeft := key < gparKey
			pLeft := key < parKey
			gn, gh := t.lock(gpar)
			pn, ph := t.lock(par)
			if removed(gh) || removed(ph) ||
				childOf(gn, gLeft) != par || childOf(pn, pLeft) != leaf {
				unlock(ph)
				unlock(gh)
				continue
			}
			sibling := childOf(pn, !pLeft)
			setRemoved(ph)
			_, lh := t.leaves.MustSlot(leaf)
			setRemoved(lh)
			setChild(gn, gLeft, sibling)
			unlock(ph)
			unlock(gh)
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
	if isLeaf(p) {
		if k := atomic.LoadUint64(&t.leaves.Raw(p).key); k < ds.MaxKey-1 {
			return 1
		}
		return 0
	}
	n := t.routers.Raw(p)
	return t.count(mem.Ptr(atomic.LoadUint64(&n.left))) + t.count(mem.Ptr(atomic.LoadUint64(&n.right)))
}

// Validate implements ds.Set (quiescent): external-tree shape, routing
// invariants, handle liveness, and every reachable node's header word at
// rest — not removed, lock free — which also catches a recycled slot
// published with its previous occupant's bits.
func (t *Tree) Validate() error {
	return t.validate(t.root, ds.MinKey, ds.MaxKey)
}

func (t *Tree) validate(p mem.Ptr, lo, hi uint64) error {
	if p.IsNull() {
		return errors.New("dgtbst: nil child reachable")
	}
	var n *router
	var k uint64
	var hdr *mem.Gen
	if isLeaf(p) {
		var l *leafNode
		l, hdr = t.leaves.Slot(p)
		k = atomic.LoadUint64(&l.key)
	} else {
		n, hdr = t.routers.Slot(p)
		k = atomic.LoadUint64(&n.key)
	}
	if !hdr.Is(p) {
		return fmt.Errorf("dgtbst: freed node %v reachable", p)
	}
	if k < lo || k > hi {
		return fmt.Errorf("dgtbst: key %d outside routing window [%d, %d]", k, lo, hi)
	}
	if removed(hdr) {
		return fmt.Errorf("dgtbst: removed node %d still reachable", k)
	}
	if w := hdr.Word.Load(); w>>nextShift != owner(w) {
		return fmt.Errorf("dgtbst: node %d's lock is held at quiescence (word %#x)", k, w)
	}
	if n == nil {
		return nil
	}
	// Routing: key < node.key goes left. Leaf keys left of k are strictly
	// smaller, but router keys may equal k at the sentinel edge (the
	// infinity router duplicates its key, as in NM14-style external BSTs),
	// so the windows are inclusive on both boundaries.
	if err := t.validate(mem.Ptr(atomic.LoadUint64(&n.left)), lo, k); err != nil {
		return err
	}
	return t.validate(mem.Ptr(atomic.LoadUint64(&n.right)), k, hi)
}
