// Package lazylist implements the lazy concurrent list-based set of Heller
// et al. (LL05), the paper's representative list workload (E1, Fig. 3b and
// Fig. 6) and its running example for SMR integration (Fig. 2).
//
// Searches are synchronization-free and may traverse marked (logically
// deleted) nodes — the property that makes LL05 incompatible with hazard
// pointers in theory (Table 1) yet ideal for NBR: the whole search is one
// Φread, and the write phase locks exactly the two records reserved at
// endΦread. The hazard-pointer integration used by the paper's benchmark
// (validating each protection by re-reading the predecessor's link and
// restarting from the head on failure) is implemented behind
// Guard.NeedsValidation, at the documented cost of wait-freedom. The search
// loop runs that validation inline, through the predecessor's slot it
// already holds, and makes no call for it: a 1024-key walk under hp costs
// about 13 ns per record on a 2-vCPU Xeon (BenchmarkReadBarrier/hp, the
// median of ten runs), against 4–5 under nbr+.
//
// A record is its key and its link, 16 bytes. The lock bit and the marked
// flag share the 32-bit record-owned word of the slot header the allocator
// already puts in front of every record, so a slot is 24 bytes (DESIGN.md
// §4).
package lazylist

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// node is a list record. All fields are accessed atomically: records are
// recycled by the pool while stale readers may still copy them, and the
// copy-then-validate discipline requires data-race-free field access. The
// lock and the marked flag live in the slot header's record-owned word
// (mem.Gen.Word: [marked | lock]), so a slot is 16 + 8 = 24 bytes.
type node struct {
	key  uint64
	next uint64 // mem.Ptr
}

// Bits of a node's header word.
const (
	lockBit   = 1 << 0
	markedBit = 1 << 1
)

func marked(hdr *mem.Gen) bool { return hdr.Word.Load()&markedBit != 0 }

// view is what a search reports of the node it stops at: its key and its
// marked flag, copied inside the read phase before the generation check.
type view struct {
	key    uint64
	marked bool
}

// List is a lazy linked-list set.
type List struct {
	pool *mem.Pool[node]
	head mem.Ptr
	tail mem.Ptr
}

// New creates a list sized for the given number of threads.
func New(threads int) *List {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a list over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *List {
	l := &List{pool: mem.NewPool[node](cfg)}
	l.tail = l.newNode(0, ds.MaxKey, mem.Null)
	l.head = l.newNode(0, ds.MinKey, l.tail)
	return l
}

// newNode allocates a record and initialises both fields and its header
// word (unlocked, unmarked); the caller publishes the handle.
func (l *List) newNode(tid int, key uint64, next mem.Ptr) mem.Ptr {
	p, n, hdr := l.pool.AllocSlot(tid)
	atomic.StoreUint64(&n.key, key)
	atomic.StoreUint64(&n.next, uint64(next))
	hdr.Word.Store(0)
	return p
}

// Arena exposes the list's allocator to reclamation schemes.
func (l *List) Arena() mem.Arena { return l.pool }

// Req is the width the list declares: the search alternates two Protect
// slots (pred/curr) and reserves the same pair. The retire threshold is
// declared explicitly so the narrow slot width does not raise the hp/he scan
// frequency.
var Req = ds.Requirements{Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (l *List) Requirements() ds.Requirements { return Req }

// MemStats reports allocator statistics (live records ≈ resident memory).
func (l *List) MemStats() mem.Stats { return l.pool.Stats() }

// search is the Φread: traverse from the head until curr.key ≥ key,
// returning the protected (pred, curr) pair and curr's snapshot. On return
// the read phase is still open; the caller decides what to reserve.
//
// Each visited record is copied in the loop itself, with no call per record:
// Protect (announce/poll) first, then the slot is resolved and every field
// copied — the header word included, decoded only for the node returned —
// and then the handle generation is re-validated through the same slot. A
// failed check restarts the read phase under the validating schemes and does
// not return under the others (smr.Barrier.Stale). The head sentinel is
// never freed, so its link is read without a generation check, before the
// loop: in the loop its key, MinKey, would end a search for 0 at the head.
// It is still protected, so a traced guard sees one Protect per visited
// record, slots alternating 0, 1.
//
// Under a validating scheme (hp, he, ibr) the loop then proves curr was
// reachable — hence not yet retired — after its Protect, inline and through
// pred's slot it already holds (pn, pgen, the head's before the first
// record), not a second resolution of pred's handle: it re-loads pred's link
// and then pred's marked flag. Marking is monotone and precedes the unlink,
// so a flag read clear after a link that still says curr means pred was
// linked, and curr reachable, when the link was read. A pred slot that no
// longer holds its allocation goes to Guard.OnStale; a moved link or a marked
// pred restarts the read phase. The epoch and NBR schemes never validate,
// and skip all of it.
func (l *List) search(g smr.Guard, b *smr.Barrier, key uint64) (pred, curr mem.Ptr, currV view) {
retry:
	g.BeginRead()
	pred = l.head
	b.Protect(0, pred)
	pn, pgen := l.pool.Slot(pred)
	curr = mem.Ptr(atomic.LoadUint64(&pn.next))
	for slot := 1; ; slot ^= 1 {
		b.Protect(slot, curr)
		n, gen := l.pool.Slot(curr)
		k := atomic.LoadUint64(&n.key)
		next := mem.Ptr(atomic.LoadUint64(&n.next))
		w := gen.Word.Load()
		if !gen.Is(curr) {
			b.Stale(curr)
			goto retry // freed before the announcement took effect
		}
		if b.NeedsValidation() {
			link := mem.Ptr(atomic.LoadUint64(&pn.next))
			m := marked(pgen)
			if !pgen.Is(pred) {
				g.OnStale(pred)
			}
			if link != curr || m {
				goto retry // curr was not provably reachable when protected
			}
		}
		if k >= key {
			return pred, curr, view{k, w&markedBit != 0}
		}
		pred, curr, pn, pgen = curr, next, n, gen
	}
}

// lock spins on a record's lock bit and returns the record with its header.
// The record must be protected (reserved under NBR, hazard-validated, or
// inside an epoch section): MustSlot asserts that protection actually held.
func (l *List) lock(p mem.Ptr) (*node, *mem.Gen) {
	n, hdr := l.pool.MustSlot(p)
	for i := 0; ; i++ {
		if w := hdr.Word.Load(); w&lockBit == 0 && hdr.Word.CompareAndSwap(w, w|lockBit) {
			return n, hdr
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
}

// unlock clears the lock bit and nothing else: a mark set under the lock
// outlives it.
func unlock(hdr *mem.Gen) { hdr.Word.And(^uint32(lockBit)) }

// validate is the lazy list's post-lock check: both nodes unmarked and still
// adjacent.
func validate(pred *node, predH, currH *mem.Gen, currPtr mem.Ptr) bool {
	return !marked(predH) && !marked(currH) &&
		mem.Ptr(atomic.LoadUint64(&pred.next)) == currPtr
}

// Contains implements ds.Set. The traversal is one read phase; there is no
// write phase, so endΦread is invoked with no reservations before returning
// (§5.3).
func (l *List) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, currV := l.search(g, &b, key)
		g.EndRead()
		return currV.key == key && !currV.marked
	})
}

// Insert implements ds.Set, following Fig. 2b: search (Φread), reserve
// pred and curr, endΦread, then lock-validate-link (Φwrite). The new record
// is allocated inside the write phase, where neutralization can no longer
// strike, so restarts never leak memory.
//
// An Insert that finds its key present and unmarked writes nothing (ASCY3,
// the rule dgtbst follows too): it ends the read phase and returns false
// without locking. It linearizes where a Contains that finds the key does, at
// the read of curr's unmarked flag: a node is marked before it is unlinked
// and the mark is never cleared while the record lives, so a flag read clear
// — and confirmed by Gen.Is to be this allocation's — means curr was
// reachable and unmarked, its key in the set, at that read, which lies
// inside the operation. A marked curr takes the locking path and fails its
// validation, so a curr that validates never holds the key.
func (l *List) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			pred, curr, currV := l.search(g, &b, key)
			if currV.key == key && !currV.marked {
				g.EndRead()
				return false
			}
			g.Reserve(0, pred)
			g.Reserve(1, curr)
			g.EndRead()
			pn, ph := l.lock(pred)
			_, ch := l.lock(curr)
			if validate(pn, ph, ch, curr) {
				np := l.newNode(g.Tid(), key, curr)
				g.OnAlloc(np)
				atomic.StoreUint64(&pn.next, uint64(np))
				unlock(ch)
				unlock(ph)
				return true
			}
			unlock(ch)
			unlock(ph)
			// Validation failed: start a fresh read phase from the root.
		}
	})
}

// Delete implements ds.Set: logical mark under locks, then physical unlink,
// then retire. Retirement happens after both locks are released, so a
// reclaimer can never free a record whose lock word a peer still spins on
// without that peer holding its own protection.
func (l *List) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			pred, curr, currV := l.search(g, &b, key)
			if currV.key != key {
				g.EndRead()
				return false
			}
			g.Reserve(0, pred)
			g.Reserve(1, curr)
			g.EndRead()
			pn, ph := l.lock(pred)
			cn, ch := l.lock(curr)
			if validate(pn, ph, ch, curr) {
				ch.Word.Or(markedBit) // logical delete
				succ := atomic.LoadUint64(&cn.next)
				atomic.StoreUint64(&pn.next, succ) // physical unlink
				unlock(ch)
				unlock(ph)
				g.Retire(curr)
				return true
			}
			unlock(ch)
			unlock(ph)
		}
	})
}

// Len implements ds.Set (quiescent).
func (l *List) Len() int {
	n := 0
	for p := l.rawNext(l.head); p != l.tail; p = l.rawNext(p) {
		n++
	}
	return n
}

func (l *List) rawNext(p mem.Ptr) mem.Ptr {
	return mem.Ptr(atomic.LoadUint64(&l.pool.Raw(p).next))
}

// Validate implements ds.Set (quiescent): strictly sorted keys, proper
// sentinels, and every linked node's header word at rest — unmarked,
// unlocked — which also catches a recycled slot published with its previous
// occupant's bits.
func (l *List) Validate() error {
	prev := ds.MinKey
	p := l.rawNext(l.head)
	for p != l.tail {
		if p.IsNull() {
			return errors.New("lazylist: reachable nil before tail sentinel")
		}
		n, hdr := l.pool.Slot(p)
		if !hdr.Is(p) {
			return fmt.Errorf("lazylist: freed node %v reachable", p)
		}
		k := atomic.LoadUint64(&n.key)
		if k <= prev {
			return fmt.Errorf("lazylist: keys not strictly increasing (%d after %d)", k, prev)
		}
		if marked(hdr) {
			return fmt.Errorf("lazylist: marked node %d still linked", k)
		}
		if hdr.Word.Load()&lockBit != 0 {
			return fmt.Errorf("lazylist: node %d's lock is held at quiescence", k)
		}
		prev = k
		p = l.rawNext(p)
	}
	return nil
}
