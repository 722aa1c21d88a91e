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
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"nbr/internal/ds"
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

// node is a list record. Data nodes carry skey = reverse(key)|1 (odd);
// bucket dummies carry skey = reverse(bucket) (even) and key 0. The list is
// sorted lexicographically by (skey, key); the key tiebreak separates the
// two keys that differ only in their top bit and so share a reversed skey.
// Bucket cells are node slots too: a cell's next field holds the mem.Ptr of
// its dummy (Null while uninitialized), which lets a whole cell array be
// carved from the node pool as one contiguous Run.
type node struct {
	skey uint64
	key  uint64
	next uint64 // mem.Ptr | mark (data/dummy) or dummy mem.Ptr (cell)
}

type view struct {
	skey uint64
	key  uint64
	next mem.Ptr // raw: may carry the mark bit
}

// table is one installed bucket array. The descriptor itself is a GC-managed
// Go value behind an atomic pointer — only the cells (pool slots) are
// manually reclaimed, as the segment seg, which stands for the whole run.
type table struct {
	seg  mem.Ptr
	run  mem.Run
	mask uint64
}

// Map is a lock-free resizable hash set of uint64 keys.
type Map struct {
	pool    *mem.Pool[node]
	tab     atomic.Pointer[table]
	count   atomic.Int64
	resizes atomic.Uint64
	head    mem.Ptr // bucket-0 dummy; also every table's cell 0
	tail    mem.Ptr
	scratch [][]mem.Ptr // per-thread marked-chain collection buffers
	// perNode switches retireTable to the dissolve-and-retire-each-cell
	// baseline the resize-burst benchmark compares against. It is only
	// safe under interval/grace schemes (he, ibr, qsbr, rcu, debra,
	// leaky): hp and nbr readers pin the array through its segment handle,
	// which individually retired cells do not honour.
	perNode bool
}

// New creates a map sized for the given number of threads.
func New(threads int) *Map {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a map over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag into every
// handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *Map {
	return newMap(cfg, false)
}

// NewPerNodeWith is the benchmark baseline constructor: resizes dissolve the
// old array's segment and retire every cell individually. See Map.perNode
// for the scheme-safety caveat; the correctness suites never use it.
func NewPerNodeWith(cfg mem.Config) *Map {
	return newMap(cfg, true)
}

func newMap(cfg mem.Config, perNode bool) *Map {
	m := &Map{
		pool:    mem.NewPool[node](cfg),
		scratch: ds.NewRetireScratch(cfg.MaxThreads),
		perNode: perNode,
	}
	tp, tn := m.pool.Alloc(0)
	atomic.StoreUint64(&tn.skey, ds.MaxKey)
	atomic.StoreUint64(&tn.key, ds.MaxKey)
	atomic.StoreUint64(&tn.next, uint64(mem.Null))
	hp, hn := m.pool.Alloc(0)
	atomic.StoreUint64(&hn.skey, 0) // bucket-0 dummy
	atomic.StoreUint64(&hn.key, 0)
	atomic.StoreUint64(&hn.next, uint64(tp))
	m.head, m.tail = hp, tp

	run := m.pool.AllocBatch(0, initialBuckets)
	atomic.StoreUint64(&m.pool.Raw(run.At(0)).next, uint64(hp))
	seg := m.pool.NewSegment(0, run)
	m.tab.Store(&table{seg: seg, run: run, mask: initialBuckets - 1})
	return m
}

// Arena exposes the map's allocator to reclamation schemes.
func (m *Map) Arena() mem.Arena { return m.pool }

// Requirements implements the per-DS width hook: the traversal uses the
// Harris slots (left in 0, cursor alternating 1 and 2) plus slot 3 for the
// current table's segment handle; endΦread reserves left, right and the
// handle.
func (m *Map) Requirements() ds.Requirements {
	return ds.Requirements{Slots: 4, Reservations: 3, Threshold: ds.DefaultThreshold}
}

// MemStats reports allocator statistics.
func (m *Map) MemStats() mem.Stats { return m.pool.Stats() }

// Resizes reports how many tables have been installed over the initial one.
func (m *Map) Resizes() uint64 { return m.resizes.Load() }

// Buckets reports the current table's cell count (racy snapshot).
func (m *Map) Buckets() int { return int(m.tab.Load().mask) + 1 }

// dataSkey is the split-order key of a data node: bit-reversed, odd.
func dataSkey(key uint64) uint64 { return bits.Reverse64(key) | 1 }

// dummySkey is the split-order key of bucket b's dummy: bit-reversed, even.
func dummySkey(b uint64) uint64 { return bits.Reverse64(b) }

// parent returns b with its highest set bit cleared — the bucket whose chain
// b's dummy is inserted into. Bucket 0 is its own root (its dummy is the
// list head, installed at construction).
func parent(b uint64) uint64 { return b &^ (1 << (bits.Len64(b) - 1)) }

// before reports (ask, akey) < (bsk, bkey) in split order.
func before(ask, akey, bsk, bkey uint64) bool {
	return ask < bsk || (ask == bsk && akey < bkey)
}

// read is the barriered copy (see lazylist.read for the protocol).
func (m *Map) read(br *smr.Barrier, slot int, p mem.Ptr) (view, bool) {
	br.Protect(slot, p)
	n, gen := m.pool.Slot(p)
	var v view
	v.skey = atomic.LoadUint64(&n.skey)
	v.key = atomic.LoadUint64(&n.key)
	v.next = mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		return view{}, br.Stale(p)
	}
	return v, true
}

// rawNext re-reads a protected node's link (validation and write phases).
func (m *Map) rawNext(g smr.Guard, p mem.Ptr) mem.Ptr {
	n, gen := m.pool.Slot(p)
	v := mem.Ptr(atomic.LoadUint64(&n.next))
	if !gen.Is(p) {
		g.OnStale(p)
	}
	return v
}

// casNext CASes a reserved/protected node's link.
func (m *Map) casNext(p mem.Ptr, old, new mem.Ptr) bool {
	n := m.pool.MustGet(p)
	return atomic.CompareAndSwapUint64(&n.next, uint64(old), uint64(new))
}

// loadCell reads cell b of tab's array inside a read phase. The cell slot is
// pinned by the array's segment handle (slot 3), not individually: Protect
// on the member is hp-redundant but is NBR's access barrier (poll before
// touch), and the generation check catches the array being freed under a
// reader whose announcements a neutralization wiped.
func (m *Map) loadCell(br *smr.Barrier, slot int, tab *table, b uint64) (mem.Ptr, bool) {
	c := tab.run.At(int(b))
	br.Protect(slot, c)
	n, gen := m.pool.Slot(c)
	v := mem.Ptr(atomic.LoadUint64(&n.next))
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
	n := m.pool.MustGet(tab.run.At(int(b)))
	atomic.CompareAndSwapUint64(&n.next, uint64(mem.Null), uint64(dp))
}

// scratchReset empties the per-thread marked-chain buffer.
//
//nbr:restartable — the buffer is private to this Tid and a neutralization restart's first action is another reset, so a torn write is unobservable
func scratchReset(s *[]mem.Ptr) { *s = (*s)[:0] }

// scratchPush records one marked node for the post-phase RetireBatch.
//
//nbr:restartable — appends to Tid-private storage that the restart path resets; growth allocates, which is safe under the panic-based neutralization this repo simulates (no signal handler to longjmp over the allocator)
func scratchPush(s *[]mem.Ptr, p mem.Ptr) { *s = append(*s, p) }

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
		left, right, rightV, ok := m.listSearch(g, br, tab, start, dsk, 0)
		if !ok {
			return false
		}
		dp := right
		if right == m.tail || rightV.skey != dsk || rightV.key != 0 {
			// Write phase: allocate and link the dummy (legal here — the
			// thread is non-restartable after listSearch's endΦread).
			np, nn := m.pool.Alloc(g.Tid())
			atomic.StoreUint64(&nn.skey, dsk)
			atomic.StoreUint64(&nn.key, 0)
			atomic.StoreUint64(&nn.next, uint64(right))
			g.OnAlloc(np)
			if !m.casNext(left, right, np) {
				// Lost the race: the private node is unpublished.
				m.pool.Free(g.Tid(), np)
				continue
			}
			dp = np
		}
		m.casCell(tab, b, dp)
		return true
	}
}

// listSearch finds the unmarked pair (left, right) bracketing (sk, key) in
// split order, starting from a dummy, splicing out any marked chain in
// between (see harrislist.search; the slot discipline is identical with the
// segment handle added: left in slot 0, cursor alternating 1 and 2, and the
// handle re-announced in slot 3 at every phase start — BeginRead wipes the
// reservation row, so the endΦread here must re-reserve the handle (slot 2)
// for the caller's cell writes and array reads to stay covered). ok=false
// means tab is no longer installed.
func (m *Map) listSearch(g smr.Guard, br *smr.Barrier, tab *table, start mem.Ptr, sk, key uint64) (left, right mem.Ptr, rightV view, ok bool) {
	scratch := &m.scratch[g.Tid()]
searchAgain:
	for {
		g.BeginRead()
		scratchReset(scratch)
		br.Protect(3, tab.seg)
		if m.tab.Load() != tab {
			g.EndRead()
			return mem.Null, mem.Null, view{}, false
		}

		t := start
		tV, _ := m.read(br, 0, t) // start is a dummy, never freed
		left, right = t, mem.Null
		leftNext := tV.next
		slot := 1

		// Traverse until an unmarked node at or past the target.
		for {
			if !tV.next.Marked() {
				left = t
				leftNext = tV.next
				br.Protect(0, left) // left already covered; renew slot 0
				scratchReset(scratch)
			} else {
				scratchPush(scratch, t)
			}
			next := tV.next.Unmarked()
			if next == m.tail {
				right = m.tail
				rightV = view{skey: ds.MaxKey, key: ds.MaxKey, next: mem.Null}
				break
			}
			nv, ok := m.read(br, slot, next)
			if !ok {
				continue searchAgain
			}
			if br.NeedsValidation() && m.rawNext(g, t).Unmarked() != next {
				continue searchAgain
			}
			t, tV = next, nv
			slot ^= 3 // alternate 1 <-> 2
			if !tV.next.Marked() && !before(tV.skey, tV.key, sk, key) {
				right = t
				rightV = tV
				break
			}
		}

		// endΦread(left, right, segment handle).
		g.Reserve(0, left)
		g.Reserve(1, right)
		g.Reserve(2, tab.seg)
		g.EndRead()

		if leftNext == right {
			// Adjacent already; restart if right got marked meanwhile.
			if right != m.tail && m.rawNext(g, right).Marked() {
				continue searchAgain
			}
			return left, right, rightV, true
		}

		// Splice out the marked chain [leftNext, right) — the auxiliary
		// write phase. The winner retires the whole chain in one batch.
		if m.casNext(left, leftNext, right) {
			g.RetireBatch(*scratch)
			if right != m.tail && m.rawNext(g, right).Marked() {
				continue searchAgain
			}
			return left, right, rightV, true
		}
	}
}

// locate brings bucket (key & mask) fully initialized and returns the
// bracketing pair for (sk, key) under a table that was the installed one
// when the final listSearch announced it; left, right and the table's
// segment handle are reserved on return.
func (m *Map) locate(g smr.Guard, br *smr.Barrier, sk, key uint64) (tab *table, left, right mem.Ptr, rightV view) {
	for {
		tab = m.tab.Load()
		start, initb, ok := m.bucketStart(g, br, tab, key&tab.mask)
		if !ok {
			continue
		}
		if initb >= 0 {
			m.initBucket(g, br, tab, start, uint64(initb))
			continue // re-resolve: deeper ancestors may still be missing
		}
		l, r, rv, ok := m.listSearch(g, br, tab, start, sk, key)
		if !ok {
			continue
		}
		return tab, l, r, rv
	}
}

// Contains implements ds.Set via a full search (which may help unlink).
func (m *Map) Contains(g smr.Guard, key uint64) bool {
	sk := dataSkey(key)
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, right, rightV := m.locate(g, &br, sk, key)
		return right != m.tail && rightV.skey == sk && rightV.key == key
	})
}

// Insert implements ds.Set. A successful link is the only resize trigger
// point: the inserter still holds the table's segment handle reserved from
// its final endΦread, which is what makes reading the old cells and CASing
// the table pointer safe in its write phase.
func (m *Map) Insert(g smr.Guard, key uint64) bool {
	sk := dataSkey(key)
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			tab, left, right, rightV := m.locate(g, &br, sk, key)
			if right != m.tail && rightV.skey == sk && rightV.key == key {
				return false
			}
			np, nn := m.pool.Alloc(g.Tid())
			atomic.StoreUint64(&nn.skey, sk)
			atomic.StoreUint64(&nn.key, key)
			atomic.StoreUint64(&nn.next, uint64(right))
			g.OnAlloc(np)
			if m.casNext(left, right, np) {
				m.count.Add(1)
				m.maybeResize(g, tab)
				return true
			}
			// Lost the race: the private node is unpublished, free it
			// directly and start a fresh read phase.
			m.pool.Free(g.Tid(), np)
		}
	})
}

// Delete implements ds.Set: logical mark CAS, then attempt the physical
// unlink; on failure the next search performs the unlink and retires.
// Dummies are unreachable here — their skeys are even, data skeys odd.
func (m *Map) Delete(g smr.Guard, key uint64) bool {
	sk := dataSkey(key)
	br := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			_, left, right, rightV := m.locate(g, &br, sk, key)
			if right == m.tail || rightV.skey != sk || rightV.key != key {
				return false
			}
			succ := m.rawNext(g, right)
			if succ.Marked() {
				continue // another deleter got here first; help via search
			}
			if !m.casNext(right, succ, succ.WithMark()) {
				continue // link changed under us; retry from a fresh search
			}
			m.count.Add(-1)
			// The mark CAS is the linearization point. Try the physical
			// unlink once; on failure leave the node for a later search to
			// splice and retire.
			if m.casNext(left, right, succ) {
				g.Retire(right)
			}
			return true
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
	run := m.pool.AllocBatch(tid, 2*n)
	for i := 0; i < n; i++ {
		c := atomic.LoadUint64(&m.pool.Raw(tab.run.At(i)).next)
		atomic.StoreUint64(&m.pool.Raw(run.At(i)).next, c)
	}
	seg := m.pool.NewSegment(tid, run)
	g.OnAlloc(seg)
	nt := &table{seg: seg, run: run, mask: uint64(2*n) - 1}
	if m.tab.CompareAndSwap(tab, nt) {
		m.resizes.Add(1)
		m.retireTable(g, tab)
	} else {
		m.pool.Free(tid, seg)
	}
}

// retireTable hands the replaced array to the reclamation scheme: one
// RetireSegment of the handle on the fast path, or — in the benchmark's
// per-node baseline — a dissolve into K individual retires, which is the
// scheme-side cost the segment path exists to collapse.
func (m *Map) retireTable(g smr.Guard, tab *table) {
	sa := mem.AsSegmentArena(m.pool)
	if !m.perNode || sa == nil {
		g.RetireSegment(tab.seg)
		return
	}
	run, ok := m.pool.DissolveSegment(tab.seg)
	if !ok {
		g.RetireSegment(tab.seg)
		return
	}
	buf := make([]mem.Ptr, 0, run.Len())
	for i := 0; i < run.Len(); i++ {
		buf = append(buf, run.At(i))
	}
	g.RetireBatch(buf)
	g.Retire(tab.seg)
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
	marked := 0
	for p := m.next(m.head); p != m.tail; p = m.next(p) {
		nd := m.pool.Raw(p)
		k := atomic.LoadUint64(&nd.key)
		sk := atomic.LoadUint64(&nd.skey)
		next := atomic.LoadUint64(&nd.next)
		if sk&1 == 1 && k&(1<<32-1) == 0 && k>>32 >= 1 && k>>32 <= uint64(n) &&
			!mem.Ptr(next).Marked() {
			if atomic.CompareAndSwapUint64(&nd.next, next, uint64(mem.Ptr(next).WithMark())) {
				marked++
			}
		}
	}
	return marked
}

// Len implements ds.Set (quiescent): counts unmarked data nodes.
func (m *Map) Len() int {
	n := 0
	for p := m.next(m.head); p != m.tail; p = m.next(p) {
		nd := m.pool.Raw(p)
		if atomic.LoadUint64(&nd.skey)&1 == 1 &&
			!mem.Ptr(atomic.LoadUint64(&nd.next)).Marked() {
			n++
		}
	}
	return n
}

func (m *Map) next(p mem.Ptr) mem.Ptr {
	return mem.Ptr(atomic.LoadUint64(&m.pool.Raw(p).next)).Unmarked()
}

// Validate implements ds.Set (quiescent): the list strictly sorted in split
// order with valid handles and the tail reachable, every initialized cell of
// the installed table pointing at the reachable dummy of its own bucket,
// and cell 0 at the head. Len is deliberately not checked against the
// internal counter: a killed thread can die between its link CAS and the
// counter update, a permanent but benign drift.
func (m *Map) Validate() error {
	dummies := map[mem.Ptr]uint64{m.head: 0}
	prevSK, prevK := uint64(0), uint64(0)
	p := m.next(m.head)
	for p != m.tail {
		if p.IsNull() {
			return errors.New("hashmap: reachable nil before tail")
		}
		n, ok := m.pool.Get(p)
		if !ok {
			return fmt.Errorf("hashmap: freed node %v reachable", p)
		}
		sk := atomic.LoadUint64(&n.skey)
		k := atomic.LoadUint64(&n.key)
		if !mem.Ptr(atomic.LoadUint64(&n.next)).Marked() {
			if !before(prevSK, prevK, sk, k) {
				return fmt.Errorf("hashmap: split order violated ((%d,%d) after (%d,%d))",
					sk, k, prevSK, prevK)
			}
			prevSK, prevK = sk, k
			if sk&1 == 0 {
				dummies[p] = sk
			}
		}
		p = m.next(p)
	}
	tab := m.tab.Load()
	if tab.run.Len() != int(tab.mask)+1 {
		return fmt.Errorf("hashmap: table run %d cells, mask %d", tab.run.Len(), tab.mask)
	}
	for b := uint64(0); b <= tab.mask; b++ {
		cell := tab.run.At(int(b))
		if !m.pool.Valid(cell) {
			return fmt.Errorf("hashmap: cell %d of installed table freed", b)
		}
		dp := mem.Ptr(atomic.LoadUint64(&m.pool.Raw(cell).next))
		if dp == mem.Null {
			continue // lazily uninitialized
		}
		if b == 0 && dp != m.head {
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
