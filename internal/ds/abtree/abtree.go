// Package abtree implements the (a,b)-tree used in the paper's E3
// experiment (Brown's ABTree, B17a). The paper's artifact builds it on
// LLX/SCX; this reproduction substitutes optimistic seqlock-validated
// locking while preserving everything the SMR layer observes (see DESIGN.md
// §2):
//
//   - searches are synchronization-free (seqlock copy-validate reads);
//   - leaves are copy-on-write: every insert and delete replaces a whole
//     leaf and retires the old one, producing the heavy retire traffic that
//     makes the ABTree an SMR stress test;
//   - rebalancing (split, merge, borrow, root collapse) happens as
//     *auxiliary write phases during the descent, each followed by a restart
//     from the root* — the multi read/write-phase pattern of §5.2 that makes
//     the tree NBR-compatible with at most 3 reservations.
//
// Structure: an external (a,b)-tree with A=4, B=16. Internal nodes hold
// `size` children and size−1 routers; child i covers keys k with
// keys[i−1] ≤ k < keys[i]. A fixed `entry` sentinel (size 1) points at the
// root; the root is exempt from the minimum-degree rule. Descents fix any
// full child (inserts) or minimum child (deletes) they meet and restart, so
// rebalancing never cascades.
package abtree

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

const (
	// B is the maximum degree (keys per leaf, children per internal node).
	B = 16
	// A is the minimum degree for non-root nodes.
	A = 4
)

// node is a tree record. lock is a seqlock word (bit 0 = locked, upper bits
// = version); all mutation happens with the lock held, so optimistic
// readers retry on any version change.
type node struct {
	lock     uint64
	leaf     uint32
	dead     uint32
	size     uint32
	_        uint32
	keys     [B]uint64
	children [B]uint64 // mem.Ptr
}

// view is a seqlock-consistent snapshot of a node.
type view struct {
	leaf     bool
	size     int
	keys     [B]uint64
	children [B]mem.Ptr
}

// route returns the child index covering key in an internal view.
func (v *view) route(key uint64) int {
	i := 0
	for i < v.size-1 && key >= v.keys[i] {
		i++
	}
	return i
}

// find returns whether key is present in a leaf view.
func (v *view) find(key uint64) bool {
	for i := 0; i < v.size; i++ {
		if v.keys[i] == key {
			return true
		}
	}
	return false
}

// Tree is an (a,b)-tree set.
type Tree struct {
	pool      *mem.Pool[node]
	entry     mem.Ptr     // fixed sentinel: internal, size 1, children[0] = root
	retireBuf [][]mem.Ptr // per-thread RetireBatch scratch, reused across unlinks
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
	rootP, rootN := t.pool.Alloc(0)
	initNode(rootN, true)
	entryP, entryN := t.pool.Alloc(0)
	initNode(entryN, false)
	atomic.StoreUint32(&entryN.size, 1)
	atomic.StoreUint64(&entryN.children[0], uint64(rootP))
	t.entry = entryP
	return t
}

func initNode(n *node, leaf bool) {
	atomic.StoreUint64(&n.lock, 0)
	var lf uint32
	if leaf {
		lf = 1
	}
	atomic.StoreUint32(&n.leaf, lf)
	atomic.StoreUint32(&n.dead, 0)
	atomic.StoreUint32(&n.size, 0)
	for i := 0; i < B; i++ {
		atomic.StoreUint64(&n.keys[i], 0)
		atomic.StoreUint64(&n.children[i], 0)
	}
}

// Arena exposes the tree's allocator to reclamation schemes.
func (t *Tree) Arena() mem.Arena { return t.pool }

// Req is the width the tree declares: descents alternate two Protect slots
// (parent/child), and the widest write phase (fixUnderfull) reserves parent,
// child and sibling. The retire threshold is declared explicitly so the
// narrow slot width does not raise the hp/he scan frequency.
var Req = ds.Requirements{Slots: 2, Reservations: 3, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (t *Tree) Requirements() ds.Requirements { return Req }

// MemStats reports allocator statistics.
func (t *Tree) MemStats() mem.Stats { return t.pool.Stats() }

// read takes a seqlock-consistent snapshot of p. While the node is locked
// the reader spins, re-running the scheme barrier so neutralization signals
// are still delivered promptly.
func (t *Tree) read(b *smr.Barrier, slot int, p mem.Ptr) (view, bool) {
	b.Protect(slot, p)
	n, gen := t.pool.Slot(p)
	for i := 0; ; i++ {
		v1 := atomic.LoadUint64(&n.lock)
		if v1&1 == 0 {
			v := copyNode(n)
			if !gen.Is(p) {
				break
			}
			if atomic.LoadUint64(&n.lock) == v1 {
				if v.size < 0 || v.size > B {
					break // torn beyond repair: treat as stale
				}
				return v, true
			}
			continue // writer raced: retry the snapshot
		}
		if !gen.Is(p) {
			break
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
		b.Protect(slot, p) // keep polling while spinning in Φread
	}
	// The handle went stale while reading.
	return view{}, b.Stale(p)
}

// copyNode loads every field of a node into a view: read validates the copy
// against the seqlock, the write phases take it under the node's lock
// (internal nodes mutate in place, so a descent-time view may be stale by
// lock time).
func copyNode(n *node) (v view) {
	v.leaf = atomic.LoadUint32(&n.leaf) != 0
	v.size = int(atomic.LoadUint32(&n.size))
	for j := 0; j < B; j++ {
		v.keys[j] = atomic.LoadUint64(&n.keys[j])
		v.children[j] = mem.Ptr(atomic.LoadUint64(&n.children[j]))
	}
	return v
}

// lock acquires a node's seqlock write side.
func (t *Tree) lock(p mem.Ptr) *node {
	n := t.pool.MustGet(p)
	for i := 0; ; i++ {
		v := atomic.LoadUint64(&n.lock)
		if v&1 == 0 && atomic.CompareAndSwapUint64(&n.lock, v, v+1) {
			return n
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
}

func unlock(n *node) { atomic.AddUint64(&n.lock, 1) }

func dead(n *node) bool { return atomic.LoadUint32(&n.dead) != 0 }
func kill(n *node)      { atomic.StoreUint32(&n.dead, 1) }

func childAt(n *node, i int) mem.Ptr {
	return mem.Ptr(atomic.LoadUint64(&n.children[i]))
}

// Contains implements ds.Set: one pure read phase.
func (t *Tree) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
	retry:
		g.BeginRead()
		v, _ := t.read(&b, 0, t.entry) // the entry sentinel is never freed
		for slot := 1; !v.leaf; slot ^= 1 {
			var ok bool
			if v, ok = t.read(&b, slot, v.children[v.route(key)]); !ok {
				goto retry
			}
		}
		g.EndRead()
		return v.find(key)
	})
}

// Insert implements ds.Set.
func (t *Tree) Insert(g smr.Guard, key uint64) bool { return t.update(g, key, true) }

// Delete implements ds.Set.
func (t *Tree) Delete(g smr.Guard, key uint64) bool { return t.update(g, key, false) }

// The auxiliary write phases update's descent can stop at.
const (
	split    = iota + 1 // a full child before an insert
	collapse            // a unary root before a delete
	fix                 // a minimum-degree child before a delete
)

// update is Insert's and Delete's one descent. It fixes the first child in
// its way — splitting a full one before an insert; collapsing a unary root,
// or merging or borrowing for a minimum-degree child, before a delete — as
// an auxiliary write phase and restarts from the root, so when the leaf is
// reached its parent has room for the change. The leaf is replaced
// copy-on-write, never changed in place.
func (t *Tree) update(g smr.Guard, key uint64, ins bool) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
	retry:
		g.BeginRead()
		parent := t.entry
		pv, _ := t.read(&b, 0, parent) // the entry sentinel is never freed
		for slot := 1; ; slot ^= 1 {
			i := pv.route(key)
			child := pv.children[i]
			cv, ok := t.read(&b, slot, child)
			if !ok {
				goto retry // stale under a validating scheme
			}
			atEntry := parent == t.entry
			op, j := 0, 0
			switch {
			case ins && cv.size == B:
				op = split
			case !ins && atEntry && !cv.leaf && cv.size == 1:
				op = collapse
			case !ins && !atEntry && cv.size <= A:
				op, j = fix, i-1
				if i == 0 {
					j = 1
				}
				if j >= pv.size {
					goto retry // parent snapshot inconsistent
				}
				g.Reserve(2, pv.children[j])
			case !cv.leaf:
				parent, pv = child, cv
				continue
			case cv.find(key) == ins:
				g.EndRead()
				return false
			}
			g.Reserve(0, parent)
			g.Reserve(1, child)
			g.EndRead()
			switch op {
			case split:
				t.splitChild(g, parent, child, i)
			case collapse:
				t.collapseRoot(g, child)
			case fix:
				t.fixUnderfull(g, parent, child, i, pv.children[j], j)
			default:
				if r := cv.with(key, ins); t.replaceLeaf(g, parent, child, i, &r) {
					return true
				}
			}
			goto retry
		}
	})
}

// linksTo re-checks, under the parent's lock, that the parent is live
// and still points at child through slot i.
func linksTo(pn *node, i int, child mem.Ptr) bool {
	return !dead(pn) && i < int(atomic.LoadUint32(&pn.size)) && childAt(pn, i) == child
}

// replaceLeaf swaps leaf for a fresh node holding r. Only the parent is
// locked: leaves are immutable after publication, so the link check proves
// the view r was built from is current.
func (t *Tree) replaceLeaf(g smr.Guard, parent, leaf mem.Ptr, i int, r *run) bool {
	pn := t.lock(parent)
	if !linksTo(pn, i, leaf) {
		unlock(pn)
		return false
	}
	np := t.writeNode(g, r)
	kill(t.pool.MustGet(leaf))
	atomic.StoreUint64(&pn.children[i], uint64(np))
	unlock(pn)
	g.Retire(leaf)
	return true
}

// run is a node laid flat with room for two: what the write phases build
// before writing it out as one node (a merge, a leaf replacement) or cutting
// it into two (a split, a borrow). Like a node, an internal run holds size
// children and size−1 routers; a leaf run holds size keys.
type run struct {
	leaf     bool
	size     int
	keys     [2 * B]uint64
	children [2 * B]mem.Ptr
}

// push appends a key to a leaf run.
func (r *run) push(key uint64) {
	r.keys[r.size] = key
	r.size++
}

// with returns a leaf view's keys with key added (ins) or removed, in order.
func (v *view) with(key uint64, ins bool) run {
	r := run{leaf: true}
	for _, k := range v.keys[:v.size] {
		if ins && key < k {
			r.push(key)
			ins = false
		}
		if k != key {
			r.push(k)
		}
	}
	if ins {
		r.push(key)
	}
	return r
}

// join lays two adjacent siblings out as one run; sep, the parent's router
// between them, becomes the router between their children (a leaf run has
// no routers and drops it).
func join(lv, hv *view, sep uint64) run {
	r := run{leaf: lv.leaf, size: lv.size + hv.size}
	copy(r.keys[:], lv.keys[:lv.size])
	copy(r.children[:], lv.children[:lv.size])
	if !r.leaf {
		r.keys[lv.size-1] = sep
	}
	copy(r.keys[lv.size:], hv.keys[:hv.size])
	copy(r.children[lv.size:], hv.children[:hv.size])
	return r
}

// cut halves r after its first h entries and returns the router the parent
// keeps between the halves: an internal run gives up its router h−1, a leaf
// run copies the right half's first key.
func (r *run) cut(h int) (lo, hi run, sep uint64) {
	lo = run{leaf: r.leaf, size: h}
	hi = run{leaf: r.leaf, size: r.size - h}
	copy(lo.keys[:], r.keys[:h])
	copy(lo.children[:], r.children[:h])
	copy(hi.keys[:], r.keys[h:r.size])
	copy(hi.children[:], r.children[h:r.size])
	if sep = r.keys[h-1]; r.leaf {
		sep = r.keys[h]
	}
	return lo, hi, sep
}

// writeNode allocates a fresh node holding r.
func (t *Tree) writeNode(g smr.Guard, r *run) mem.Ptr {
	p, n := t.pool.Alloc(g.Tid())
	initNode(n, r.leaf)
	for j := 0; j < r.size; j++ {
		atomic.StoreUint64(&n.keys[j], r.keys[j])
		atomic.StoreUint64(&n.children[j], uint64(r.children[j]))
	}
	atomic.StoreUint32(&n.size, uint32(r.size))
	g.OnAlloc(p)
	return p
}

// splitChild splits a full child into two halves (copy-on-write), inserting
// the separator router into the parent — or, when the parent is the entry
// sentinel, growing a new root. Restart-from-root follows in the caller.
func (t *Tree) splitChild(g smr.Guard, parent, child mem.Ptr, i int) {
	pn := t.lock(parent)
	if !linksTo(pn, i, child) {
		unlock(pn)
		return
	}
	atEntry := parent == t.entry
	if !atEntry && int(atomic.LoadUint32(&pn.size)) >= B {
		// No room for another child; a later descent splits the parent
		// first (it is full, so the preemptive rule catches it).
		unlock(pn)
		return
	}
	cn := t.lock(child)
	cv := copyNode(cn)
	if dead(cn) || cv.size != B {
		unlock(cn)
		unlock(pn)
		return
	}
	whole := join(&cv, &view{leaf: cv.leaf}, 0) // widened to a run
	left, right, sep := whole.cut(B / 2)
	lp, rp := t.writeNode(g, &left), t.writeNode(g, &right)
	if atEntry {
		// Grow a new root above the split halves.
		root := run{size: 2}
		root.keys[0], root.children[0], root.children[1] = sep, lp, rp
		atomic.StoreUint64(&pn.children[0], uint64(t.writeNode(g, &root)))
	} else {
		// Shift parent arrays right of i and splice in the halves.
		psize := int(atomic.LoadUint32(&pn.size))
		for j := psize - 1; j > i; j-- {
			atomic.StoreUint64(&pn.children[j+1], atomic.LoadUint64(&pn.children[j]))
		}
		for j := psize - 2; j >= i; j-- {
			atomic.StoreUint64(&pn.keys[j+1], atomic.LoadUint64(&pn.keys[j]))
		}
		atomic.StoreUint64(&pn.children[i], uint64(lp))
		atomic.StoreUint64(&pn.children[i+1], uint64(rp))
		atomic.StoreUint64(&pn.keys[i], sep)
		atomic.StoreUint32(&pn.size, uint32(psize+1))
	}
	kill(cn)
	unlock(cn)
	unlock(pn)
	g.Retire(child)
}

// fixUnderfull merges or rebalances a minimum-degree child with a sibling
// (both replaced copy-on-write), shrinking or rewriting the parent in place.
func (t *Tree) fixUnderfull(g smr.Guard, parent, child mem.Ptr, i int, sib mem.Ptr, j int) {
	pn := t.lock(parent)
	if !linksTo(pn, i, child) || !linksTo(pn, j, sib) {
		unlock(pn)
		return
	}
	// Lock the two children in index order.
	lo, hi := i, j
	loPtr, hiPtr := child, sib
	if j < i {
		lo, hi = j, i
		loPtr, hiPtr = sib, child
	}
	ln := t.lock(loPtr)
	hn := t.lock(hiPtr)
	lv, hv := copyNode(ln), copyNode(hn)
	release := func() {
		unlock(hn)
		unlock(ln)
		unlock(pn)
	}
	if dead(ln) || dead(hn) || lv.leaf != hv.leaf {
		release()
		return
	}
	// Re-check the trigger: the child may have grown since the descent.
	cs := lv.size
	if loPtr != child {
		cs = hv.size
	}
	if cs > A {
		release()
		return
	}
	// keys[lo] is the router between lo and hi.
	r := join(&lv, &hv, atomic.LoadUint64(&pn.keys[lo]))
	if r.size <= B {
		// Merge: children[lo] = merged; remove children[hi] and keys[lo].
		psize := int(atomic.LoadUint32(&pn.size))
		atomic.StoreUint64(&pn.children[lo], uint64(t.writeNode(g, &r)))
		for k := hi; k < psize-1; k++ {
			atomic.StoreUint64(&pn.children[k], atomic.LoadUint64(&pn.children[k+1]))
		}
		for k := lo; k < psize-2; k++ {
			atomic.StoreUint64(&pn.keys[k], atomic.LoadUint64(&pn.keys[k+1]))
		}
		atomic.StoreUint32(&pn.size, uint32(psize-1))
	} else {
		// Borrow: the pair is more than one node holds, so halve it.
		left, right, sep := r.cut(r.size / 2)
		atomic.StoreUint64(&pn.children[lo], uint64(t.writeNode(g, &left)))
		atomic.StoreUint64(&pn.children[hi], uint64(t.writeNode(g, &right)))
		atomic.StoreUint64(&pn.keys[lo], sep)
	}
	kill(ln)
	kill(hn)
	release()
	// Both halves of the subtree go to the scheme in one batch: one
	// watermark check and at most one scan for the whole unlink (the
	// scratch handoff is alloc-free — see ds.NewRetireScratch).
	g.RetireBatch(append(t.retireBuf[g.Tid()][:0], loPtr, hiPtr))
}

// collapseRoot replaces a unary internal root with its only child.
func (t *Tree) collapseRoot(g smr.Guard, root mem.Ptr) {
	en := t.lock(t.entry)
	if childAt(en, 0) != root {
		unlock(en)
		return
	}
	rn := t.lock(root)
	if dead(rn) || atomic.LoadUint32(&rn.leaf) != 0 || atomic.LoadUint32(&rn.size) != 1 {
		unlock(rn)
		unlock(en)
		return
	}
	atomic.StoreUint64(&en.children[0], atomic.LoadUint64(&rn.children[0]))
	kill(rn)
	unlock(rn)
	unlock(en)
	g.Retire(root)
}

// Len implements ds.Set (quiescent).
func (t *Tree) Len() int {
	root := childAt(t.pool.Raw(t.entry), 0)
	return t.count(root)
}

func (t *Tree) count(p mem.Ptr) int {
	n := t.pool.Raw(p)
	if atomic.LoadUint32(&n.leaf) != 0 {
		return int(atomic.LoadUint32(&n.size))
	}
	total := 0
	for i := 0; i < int(atomic.LoadUint32(&n.size)); i++ {
		total += t.count(childAt(n, i))
	}
	return total
}

// Validate implements ds.Set (quiescent): size bounds, routing windows,
// sorted leaves, uniform leaf depth, live handles, no dead nodes reachable.
func (t *Tree) Validate() error {
	root := childAt(t.pool.Raw(t.entry), 0)
	_, err := t.validate(root, ds.MinKey, ds.MaxKey, true)
	return err
}

func (t *Tree) validate(p mem.Ptr, lo, hi uint64, isRoot bool) (depth int, err error) {
	if p.IsNull() {
		return 0, errors.New("abtree: nil child reachable")
	}
	n, ok := t.pool.Get(p)
	if !ok {
		return 0, fmt.Errorf("abtree: freed node %v reachable", p)
	}
	if dead(n) {
		return 0, fmt.Errorf("abtree: dead node %v reachable", p)
	}
	size := int(atomic.LoadUint32(&n.size))
	leaf := atomic.LoadUint32(&n.leaf) != 0
	if size > B {
		return 0, fmt.Errorf("abtree: node size %d exceeds B=%d", size, B)
	}
	if leaf {
		if !isRoot && size < A {
			return 0, fmt.Errorf("abtree: leaf size %d below A=%d", size, A)
		}
		prev := lo
		first := true
		for i := 0; i < size; i++ {
			k := atomic.LoadUint64(&n.keys[i])
			if k < lo || k >= hi {
				return 0, fmt.Errorf("abtree: leaf key %d outside window [%d, %d)", k, lo, hi)
			}
			if !first && k <= prev {
				return 0, fmt.Errorf("abtree: leaf keys not sorted (%d after %d)", k, prev)
			}
			prev, first = k, false
		}
		return 1, nil
	}
	min := A
	if isRoot {
		min = 2
	}
	if size < min {
		return 0, fmt.Errorf("abtree: internal size %d below minimum %d", size, min)
	}
	childLo := lo
	var childDepth int
	for i := 0; i < size; i++ {
		childHi := hi
		if i < size-1 {
			childHi = atomic.LoadUint64(&n.keys[i])
			if childHi < childLo || childHi > hi {
				return 0, fmt.Errorf("abtree: router %d outside window [%d, %d)", childHi, lo, hi)
			}
		}
		d, err := t.validate(childAt(n, i), childLo, childHi, false)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			childDepth = d
		} else if d != childDepth {
			return 0, fmt.Errorf("abtree: unbalanced — leaf depth %d vs %d", d, childDepth)
		}
		if i < size-1 {
			childLo = childHi
		}
	}
	return childDepth + 1, nil
}
