package mem

import (
	"fmt"
	"sync/atomic"

	"nbr/internal/obs"
)

// Hub is one Arena standing in front of several typed pools, so one
// reclamation scheme (one set of limbo bags, one garbage bound) can serve
// several data structures at once. Each pool is attached under a distinct
// arena tag and stamps that tag into every handle it allocates (Config.Tag);
// the Hub routes every Arena call to the pool the handle's tag names. The
// scheme side needs no changes: its bags simply hold records whose owner
// travels inside the Ptr. What a tag names is one structure's Arena: its
// Pool, or the Pair in front of its two pools when it has two record kinds.
//
// The Hub is a router and keeps no per-thread state. FreeBatch groups a
// reclamation burst by owner in place and hands each owner its records in
// one pool FreeBatch before it returns, so a burst costs one pool
// interaction per distinct owner in it however the retire streams
// interleave, and when the call returns every record of the burst is back
// with its allocator — generation flipped, Frees counted — exactly as under
// a single pool (see DESIGN.md §11 "Routing a burst").
//
// Attach is construction-time wiring for the common case, but pools may also
// attach while leases are live: Attach replays the largest recorded
// reclamation burst onto the new pool for every thread slot, so a
// late-attaching structure's pool is sized exactly like one attached before
// the first lease (Pool.SizeCache is safe from any goroutine). The routing
// path is lock-free loads.
type Hub struct {
	subs [MaxTags]atomic.Pointer[hubSub]
	n    atomic.Int32

	// maxThreads is the number of thread slots a late-attaching pool is
	// sized for; burst is the largest reclamation burst any SizeCache
	// declared, the size Attach replays.
	maxThreads int
	burst      atomic.Int32

	bursts     atomic.Uint64 // FreeBatch calls received
	dispatches atomic.Uint64 // FreeBatch calls issued to pools

	// rec is the flight recorder; nil or disabled costs one branch per
	// dispatch (obs methods are nil-safe).
	rec *obs.Recorder
}

// hubSub boxes an attached Arena so the routing slot is one atomic pointer.
type hubSub struct {
	a Arena
}

// HubStats is a snapshot of the Hub's free-path accounting. Dispatches per
// burst is the number of distinct owners an average reclamation burst
// carries: 1 for a single-structure arena, at most the number of attached
// pools however the retire streams interleave.
type HubStats struct {
	Bursts     uint64 // FreeBatch calls received from the scheme
	Dispatches uint64 // FreeBatch calls issued to owning pools
}

// NewHub returns an empty Hub serving maxThreads dense thread slots. It is a
// valid Arena immediately — a scheme may be constructed over it before any
// pool is attached, since no handle can reach the scheme before its pool
// exists.
func NewHub(maxThreads int) *Hub {
	return &Hub{maxThreads: max(maxThreads, 1)}
}

// SetRecorder attaches a flight recorder to the free seam. Wire it before
// the Hub is used concurrently; a nil recorder (the default) keeps the free
// paths on their one-branch fast path.
func (h *Hub) SetRecorder(r *obs.Recorder) { h.rec = r }

// NextTag returns the tag the next Attach will occupy. The caller constructs
// the pool with exactly this Config.Tag and then attaches it.
func (h *Hub) NextTag() int { return int(h.n.Load()) }

// Attach registers a pool under tag. Tags must be attached densely in order
// (tag == NextTag()), which is what guarantees every circulating handle
// routes to an attached pool; Attach panics otherwise, and when the Hub is
// full. A pool attached after SizeCache calls (i.e. after leases were
// handed out) is sized for every thread slot at the recorded burst, so a
// late-attaching structure gets the same one-flush-per-burst cache sizing as
// one attached before the first lease.
func (h *Hub) Attach(tag int, a Arena) {
	if tag != int(h.n.Load()) {
		panic(fmt.Sprintf("mem: Hub.Attach tag %d out of order (next is %d)", tag, h.n.Load()))
	}
	if tag >= MaxTags {
		panic(fmt.Sprintf("mem: Hub full (%d arenas)", MaxTags))
	}
	if burst := int(h.burst.Load()); burst > 0 {
		for tid := 0; tid < h.maxThreads; tid++ {
			a.SizeCache(tid, burst)
		}
	}
	h.subs[tag].Store(&hubSub{a: a})
	h.n.Store(int32(tag + 1))
}

// Arenas returns the number of attached pools.
func (h *Hub) Arenas() int { return int(h.n.Load()) }

// Stats returns the Hub's free-path counters.
func (h *Hub) Stats() HubStats {
	return HubStats{Bursts: h.bursts.Load(), Dispatches: h.dispatches.Load()}
}

// Staged is always zero: the Hub holds no record across a call. The accessor
// remains because the frozen benchmark oracle (benchmark/traced.go) reads
// it; it goes when a benchmark issue drops that read.
func (h *Hub) Staged() int64 { return 0 }

// route resolves p's owning pool, panicking on a tag no pool was attached
// under — a handle that cannot be routed is corrupt, never a benign state.
func (h *Hub) route(p Ptr) Arena {
	if s := h.subs[p.ArenaTag()].Load(); s != nil {
		return s.a
	}
	panic(fmt.Sprintf("mem: Hub cannot route %v (no arena attached under tag %d)", p, p.ArenaTag()))
}

// Free implements Arena by routing to the owning pool.
func (h *Hub) Free(tid int, p Ptr) {
	if h.rec.Sampling() {
		h.rec.NoteFree(uint64(p))
	}
	h.route(p).Free(tid, p)
}

// FreeBatch implements Arena. It groups ps by owner in place — take the
// first record's tag, swap every later record carrying it forward, hand that
// prefix to its pool in one FreeBatch, continue with the rest — so it makes
// one pass and one dispatch per distinct owner in the burst and every record
// is freed before it returns. A uniform burst is its own first group: every
// swap is a self-swap and the pool sees the caller's order. In a mixed burst
// the order within an owner's group may differ from the caller's; ps is
// reordered, not retained. An unattached tag panics when its group comes up,
// after the groups before it were freed.
func (h *Hub) FreeBatch(tid int, ps []Ptr) {
	if len(ps) == 0 {
		return
	}
	h.bursts.Add(1)
	for len(ps) > 0 {
		owner := h.route(ps[0])
		n := group(ps, tagField)
		h.dispatches.Add(1)
		h.noteFrees(tid, ps[:n])
		owner.FreeBatch(tid, ps[:n])
		ps = ps[n:]
	}
}

// group is the swap-forward pass a Hub groups a burst by tag with and a Pair
// by kind: it moves every record of ps whose bits under field equal ps[0]'s
// to the front, in one pass, and returns how many there are. ps must not be
// empty.
func group(ps []Ptr, field Ptr) int {
	want, n := ps[0]&field, 1
	for i := 1; i < len(ps); i++ {
		if ps[i]&field == want {
			ps[n], ps[i] = ps[i], ps[n]
			n++
		}
	}
	return n
}

// noteFrees records one group's dispatch and, while garbage-age samples are
// outstanding, matches the freed handles against the recorder's sample table
// to close retire→free residence measurements. One branch when the recorder
// is off.
func (h *Hub) noteFrees(tid int, ps []Ptr) {
	if !h.rec.Enabled() {
		return
	}
	h.rec.Rec(tid, obs.EvHubDispatch, uint64(len(ps)))
	if h.rec.Sampling() {
		for _, p := range ps {
			h.rec.NoteFree(uint64(p))
		}
	}
}

// Hdr implements Arena by routing to the owning pool.
func (h *Hub) Hdr(p Ptr) *Hdr { return h.route(p).Hdr(p) }

// SegmentWeight implements SegmentArena by routing to the owning pool. A
// pool without segment support weighs every handle 0 (not a segment), which
// is exact: only a SegmentArena can have created one.
func (h *Hub) SegmentWeight(p Ptr) int {
	if sa, ok := h.route(p).(SegmentArena); ok {
		return sa.SegmentWeight(p)
	}
	return 0
}

// Valid implements Arena by routing to the owning pool.
func (h *Hub) Valid(p Ptr) bool { return h.route(p).Valid(p) }

// SizeCache implements Arena by fanning out to every attached pool: the
// scheme's reclamation burst can land wholly in any one structure's pool, so
// each must absorb it locally. The largest declared burst is recorded so
// pools attached later are sized identically (see Attach).
func (h *Hub) SizeCache(tid, burst int) {
	for {
		cur := h.burst.Load()
		if int32(burst) <= cur || h.burst.CompareAndSwap(cur, int32(burst)) {
			break
		}
	}
	for t := 0; t < int(h.n.Load()); t++ {
		h.subs[t].Load().a.SizeCache(tid, burst)
	}
}

// DrainCache implements Arena by fanning out: every pool's thread cache is
// drained to the shared shards, so a released thread slot strands no
// recyclable records in any structure.
func (h *Hub) DrainCache(tid int) {
	for t := 0; t < int(h.n.Load()); t++ {
		h.subs[t].Load().a.DrainCache(tid)
	}
}
