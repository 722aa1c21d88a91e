// Package hashmap implements a lock-free resizable hash map as a
// split-ordered list (Shalev & Shavit, "Split-Ordered Lists: Lock-Free
// Extensible Hash Tables"): every key lives in one Harris-style linked list
// sorted by bit-reversed key, and a bucket array of shortcut cells points at
// dummy nodes inside that list. Doubling the table never moves a key — it
// only adds dummies — so resizing reduces to installing a new cell array and
// discarding the old one.
//
// The old array is the structure's bulk-retirement case: K cells become
// garbage at one linearization point (the table-pointer CAS). Retiring them
// through the per-record path would cost K scheme-side stamps and K bag
// entries per resize; instead the array is carved as one mem.Run, wrapped in
// a segment record, and handed to the scheme as a single RetireSegment
// handle. Readers pin the whole array with one announcement on that handle
// (Protect slot 3 during the read phase, Reserve slot 2 across the write
// phase), so the cells themselves are never individually protected — which
// is exactly why they must die as one segment: the scheme can only defer to
// per-cell hazards that exist.
//
// NBR integration follows the package's Requirement 12 discipline: every
// read phase (bucket-start resolution, list traversal) restarts from
// structure roots — the table pointer is a GC-managed global and dummy nodes
// are never retired — and each endΦread reserves at most left, right and the
// current array's segment handle (3 reservations).
package hashmap

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/ds/marklist"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

const (
	// initialBuckets is the cell count of the table a fresh map starts
	// with; every grow doubles it.
	initialBuckets = 8
	// loadFactor triggers a grow when count exceeds buckets·loadFactor,
	// keeping expected chain length (dummy to dummy) constant.
	loadFactor = 3
)

// table is one installed bucket array. The descriptor itself is a GC-managed
// Go value behind an atomic pointer — only the cells (pool slots) are
// manually reclaimed, as the segment seg, which stands for the whole run.
type table struct {
	seg  mem.Ptr
	run  mem.Run
	mask uint64
}

// Map is a lock-free resizable hash set of uint64 keys.
//
// Its list is a marklist.List ordered by (skey, hi). A data node's Key is
// skey = reverse(key)|1 (odd); the |1 overwrites reverse(key)'s bit 0, which
// is key's top bit, so that one bit — hi — is kept in the node's Sub and the
// user key is never stored: userKey rebuilds it. hi is also the tiebreak
// between the two keys that differ only in their top bit and so share a
// skey. A bucket dummy carries Key = reverse(bucket) (even) and Sub 0.
// Bucket cells are node slots too: a cell's Next field holds the mem.Ptr of
// its dummy (Null while uninitialized), which lets a whole cell array be
// carved from the node pool as one contiguous Run.
type Map struct {
	marklist.List // Head is the bucket-0 dummy; also every table's cell 0
	tab           atomic.Pointer[table]
	count         atomic.Int64
	resizes       atomic.Uint64
}

// New creates a map sized for the given number of threads.
func New(threads int) *Map {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a map over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag into every
// handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *Map {
	m := &Map{List: marklist.New(cfg)}
	run := m.Pool.AllocBatch(0, initialBuckets)
	atomic.StoreUint64(&m.Pool.Raw(run.At(0)).Next, uint64(m.Head))
	seg := m.Pool.NewSegment(0, run)
	m.tab.Store(&table{seg: seg, run: run, mask: initialBuckets - 1})
	return m
}

// Req is the width the map declares: the traversal uses the Harris slots
// (left in 0, cursor alternating 1 and 2) plus slot 3 for the current
// table's segment handle; endΦread reserves left, right and the handle.
var Req = ds.Requirements{Slots: 4, Reservations: 3, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (m *Map) Requirements() ds.Requirements { return Req }

// Resizes reports how many tables have been installed over the initial one.
func (m *Map) Resizes() uint64 { return m.resizes.Load() }

// Buckets reports the current table's cell count (racy snapshot).
func (m *Map) Buckets() int { return int(m.tab.Load().mask) + 1 }

// split is a data node's place in split order: the bit-reversed key made
// odd, and the top bit of key that the |1 overwrote.
func split(key uint64) (skey uint64, hi uint32) {
	return bits.Reverse64(key) | 1, uint32(key >> 63)
}

// userKey is split's inverse.
func userKey(skey uint64, hi uint32) uint64 {
	return bits.Reverse64(skey&^1) | uint64(hi)<<63
}

// dummySkey is the split-order key of bucket b's dummy: bit-reversed, even.
func dummySkey(b uint64) uint64 { return bits.Reverse64(b) }

// parent returns b with its highest set bit cleared — the bucket whose chain
// b's dummy is inserted into. Bucket 0 is its own root (its dummy is the
// list head, installed at construction).
func parent(b uint64) uint64 { return b &^ (1 << (bits.Len64(b) - 1)) }

// loadCell reads cell b of tab's array inside a read phase. The cell slot is
// pinned by the array's segment handle (slot 3), not individually: Protect
// on the member is hp-redundant but is NBR's access barrier (poll before
// touch), and the generation check catches the array being freed under a
// reader whose announcements a neutralization wiped.
func (m *Map) loadCell(br *smr.Barrier, slot int, tab *table, b uint64) (mem.Ptr, bool) {
	c := tab.run.At(int(b))
	br.Protect(slot, c)
	n, gen := m.Pool.Slot(c)
	v := mem.Ptr(atomic.LoadUint64(&n.Next))
	if !gen.Is(c) {
		return mem.Null, br.Stale(c)
	}
	return v, true
}

// casCell publishes bucket b's dummy in tab's array (write phase; the array
// is held by the segment-handle reservation taken at the last endΦread).
// Losing the race is fine — cells only ever go Null → dummy, and both racers
// insert-or-find the same dummy before attempting the CAS.
func (m *Map) casCell(tab *table, b uint64, dp mem.Ptr) {
	n := m.Pool.MustGet(tab.run.At(int(b)))
	atomic.CompareAndSwapUint64(&n.Next, uint64(mem.Null), uint64(dp))
}

// bucketStart resolves where bucket b's chain begins in tab: one read phase
// walking b's ancestor cells toward bucket 0 (whose cell is always the list
// head). It returns the dummy of the deepest initialized ancestor and, in
// initb, the shallowest uninitialized bucket on the path (-1 when b itself
// is initialized) — the one the caller must initialize next, top-down, so
// every dummy insertion starts from an already-installed parent. ok=false
// means tab is no longer the installed table and the operation must reload.
//
// No reservation outlives the phase: the returned start is a dummy, and
// dummies are never retired, so it stays a valid traversal root for the next
// phase no matter what the reclaimer does in between.
func (m *Map) bucketStart(g smr.Guard, br *smr.Barrier, tab *table, b uint64) (start mem.Ptr, initb int, ok bool) {
searchAgain:
	for {
		g.BeginRead()
		br.Protect(3, tab.seg)
		if m.tab.Load() != tab {
			g.EndRead()
			return mem.Null, 0, false
		}
		initb = -1
		for bb := b; ; bb = parent(bb) {
			c, ok := m.loadCell(br, 0, tab, bb)
			if !ok {
				continue searchAgain
			}
			if c != mem.Null {
				g.EndRead()
				return c, initb, true
			}
			if bb == 0 {
				// Cell 0 is copied from the previous table's cell 0 on
				// every resize and seeded with the head at construction;
				// Null means the invariant is broken, not a race.
				panic("hashmap: bucket 0 cell uninitialized")
			}
			initb = int(bb)
		}
	}
}

// initBucket installs bucket b's dummy: find its split-order position from
// start (an initialized ancestor's dummy), insert one dummy node if no racer
// already has, then publish it in tab's cell. Returns false when tab went
// stale, sending the operation back to reload the table.
func (m *Map) initBucket(g smr.Guard, br *smr.Barrier, tab *table, start mem.Ptr, b uint64) bool {
	dsk := dummySkey(b)
	for {
		left, right, found, ok := m.listSearch(g, br, tab, start, dsk, 0)
		if !ok {
			return false
		}
		dp := right
		if !found {
			if dp = m.List.Insert(g, left, right, dsk, 0); dp == mem.Null {
				continue // lost the link race; search again
			}
		}
		m.casCell(tab, b, dp)
		return true
	}
}

// listSearch finds the unmarked pair (left, right) bracketing (sk, hi) in
// split order, starting from a dummy, splicing out any marked chain in
// between, and returns it with whether right holds (sk, hi). It is
// harrislist.search with the segment handle added: the handle is announced in
// slot 3 at every phase start, ahead of the traversal's slots 0–2, and —
// BeginRead wipes the reservation row — re-reserved (slot 2) at endΦread for
// the caller's cell writes and array reads to stay covered. ok=false means
// tab is no longer installed.
func (m *Map) listSearch(g smr.Guard, br *smr.Barrier, tab *table, start mem.Ptr, sk uint64, hi uint32) (mem.Ptr, mem.Ptr, bool, bool) {
	for {
		g.BeginRead()
		br.Protect(3, tab.seg)
		if m.tab.Load() != tab {
			g.EndRead()
			return mem.Null, mem.Null, false, false
		}
		left, leftNext, right, found, ok := m.Traverse(g, br, start, sk, hi)
		if !ok {
			continue
		}
		// endΦread(left, right, segment handle).
		g.Reserve(0, left)
		g.Reserve(1, right)
		g.Reserve(2, tab.seg)
		g.EndRead()
		if m.Splice(g, left, leftNext, right) {
			return left, right, found, true
		}
	}
}

// locate brings bucket (key & mask) fully initialized and returns the
// bracketing pair for key's (sk, hi), with whether right holds it, under a
// table that was the installed one when the final listSearch announced it;
// left, right and the table's segment handle are reserved on return.
func (m *Map) locate(g smr.Guard, br *smr.Barrier, key uint64) (*table, mem.Ptr, mem.Ptr, bool) {
	sk, hi := split(key)
	for {
		tab := m.tab.Load()
		start, initb, ok := m.bucketStart(g, br, tab, key&tab.mask)
		if !ok {
			continue
		}
		if initb >= 0 {
			m.initBucket(g, br, tab, start, uint64(initb))
			continue // re-resolve: deeper ancestors may still be missing
		}
		if left, right, found, ok := m.listSearch(g, br, tab, start, sk, hi); ok {
			return tab, left, right, found
		}
	}
}

// Contains implements ds.Set via a full search (which may help unlink).
func (m *Map) Contains(g smr.Guard, key uint64) bool {
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, _, found := m.locate(g, &br, key)
		return found
	})
}

// Insert implements ds.Set. A successful link is the only resize trigger
// point: the inserter still holds the table's segment handle reserved from
// its final endΦread, which is what makes reading the old cells and CASing
// the table pointer safe in its write phase.
func (m *Map) Insert(g smr.Guard, key uint64) bool {
	sk, hi := split(key)
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			tab, left, right, found := m.locate(g, &br, key)
			if found {
				return false
			}
			if m.List.Insert(g, left, right, sk, hi) != mem.Null {
				m.count.Add(1)
				m.maybeResize(g, tab)
				return true
			}
		}
	})
}

// Delete implements ds.Set: logical mark CAS, then attempt the physical
// unlink; on failure the next search performs the unlink and retires.
// Dummies are unreachable here — their skeys are even, data skeys odd.
func (m *Map) Delete(g smr.Guard, key uint64) bool {
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			_, left, right, found := m.locate(g, &br, key)
			if !found {
				return false
			}
			if m.List.Delete(g, left, right) {
				m.count.Add(-1)
				return true
			}
		}
	})
}

// maybeResize grows the table when the load factor is exceeded. Called in
// the write phase of a successful insert, with tab's segment handle still
// reserved/announced.
func (m *Map) maybeResize(g smr.Guard, tab *table) {
	if m.count.Load() <= int64(tab.mask+1)*loadFactor {
		return
	}
	if m.tab.Load() != tab {
		return // someone else already grew past us
	}
	m.resize(g, tab)
}

// resize installs a doubled cell array. The new cells are a fresh AllocBatch
// run (guaranteed zero, so uncopied upper cells read as Null/uninitialized);
// the lower half is a racy copy of the old cells — a concurrently published
// dummy that the copy misses is re-found in the list by lazy initialization,
// so no initialization is ever lost, only redone. The CAS winner retires the
// old array as one segment; the loser's private run is freed through its
// handle, which fans out to the members.
func (m *Map) resize(g smr.Guard, tab *table) {
	tid := g.Tid()
	n := int(tab.mask) + 1
	run := m.Pool.AllocBatch(tid, 2*n)
	for i := 0; i < n; i++ {
		c := atomic.LoadUint64(&m.Pool.Raw(tab.run.At(i)).Next)
		atomic.StoreUint64(&m.Pool.Raw(run.At(i)).Next, c)
	}
	seg := m.Pool.NewSegment(tid, run)
	g.OnAlloc(seg)
	nt := &table{seg: seg, run: run, mask: uint64(2*n) - 1}
	if m.tab.CompareAndSwap(tab, nt) {
		m.resizes.Add(1)
		g.RetireSegment(tab.seg)
	} else {
		m.Pool.Free(tid, seg)
	}
}

// BuildMarkedChain deterministically prepares an oversized-splice input for
// the garbage-bound suites (quiescent; single-threaded): keys i<<32 for
// i in 1..n all hash to bucket 0 under any table below 2^32 cells, and their
// split-order keys (reverse(i<<32) < 2^32) sort below every dummy except the
// head — so they form one contiguous chain right after the head, and the
// next search whose target lies past them (any dummy installation included)
// splices all n in a single RetireBatch. The nodes are marked without the
// physical unlink, exactly the state n logically deleted nodes are in before
// any search helps. Returns the number of nodes marked.
func (m *Map) BuildMarkedChain(g smr.Guard, n int) int {
	for i := 1; i <= n; i++ {
		m.Insert(g, uint64(i)<<32)
	}
	return m.MarkWhere(func(sk uint64, hi uint32) bool {
		k := userKey(sk, hi)
		return sk&1 == 1 && k&(1<<32-1) == 0 && k>>32 >= 1 && k>>32 <= uint64(n)
	})
}

// Len implements ds.Set (quiescent): counts unmarked data nodes.
func (m *Map) Len() (n int) {
	m.Walk(func(_ mem.Ptr, v marklist.View) { n += int(v.Key & 1) })
	return n
}

// Validate implements ds.Set (quiescent): the list strictly sorted in split
// order with valid handles and the tail reachable, every initialized cell of
// the installed table pointing at the reachable dummy of its own bucket,
// and cell 0 at the head. Len is deliberately not checked against the
// internal counter: a killed thread can die between its link CAS and the
// counter update, a permanent but benign drift.
func (m *Map) Validate() error {
	dummies := map[mem.Ptr]uint64{m.Head: 0}
	err := m.Walk(func(p mem.Ptr, v marklist.View) {
		if v.Key&1 == 0 {
			dummies[p] = v.Key
		}
	})
	if err != nil {
		return fmt.Errorf("hashmap: %w", err)
	}
	tab := m.tab.Load()
	if tab.run.Len() != int(tab.mask)+1 {
		return fmt.Errorf("hashmap: table run %d cells, mask %d", tab.run.Len(), tab.mask)
	}
	for b := uint64(0); b <= tab.mask; b++ {
		cell := tab.run.At(int(b))
		if !m.Pool.Valid(cell) {
			return fmt.Errorf("hashmap: cell %d of installed table freed", b)
		}
		dp := mem.Ptr(atomic.LoadUint64(&m.Pool.Raw(cell).Next))
		if dp == mem.Null {
			continue // lazily uninitialized
		}
		if b == 0 && dp != m.Head {
			return fmt.Errorf("hashmap: cell 0 is %v, not the head", dp)
		}
		sk, ok := dummies[dp]
		if !ok {
			return fmt.Errorf("hashmap: cell %d points at %v, not a reachable dummy", b, dp)
		}
		if sk != dummySkey(b) {
			return fmt.Errorf("hashmap: cell %d points at dummy of bucket %d",
				b, bits.Reverse64(sk))
		}
	}
	return nil
}
