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
// travels inside the Ptr.
//
// The free path keeps the single-pool FreeBatch amortization (one pool
// interaction per reclamation burst) even when retire streams from different
// structures interleave inside one bag. A uniform burst — every record owned
// by one pool — is dispatched directly. A mixed burst is staged per owner in
// small per-thread buffers and each owner's buffer is handed to its pool in
// one FreeBatch once it reaches the thread's declared reclamation burst
// (SizeCache), on DrainCache, or — when no burst was declared — at the end
// of the call. Perfectly interleaved retire streams thus cost one pool
// interaction per burst amortized, instead of one per same-owner run.
//
// Records sitting in a staging buffer have been counted as freed by the
// scheme but have not yet had their slot generation flipped by their pool;
// they are unreachable (retired) and cannot be recycled until flushed, so
// delaying the flip delays only use-after-free *detection*, never creates
// reuse. Staging is bounded by MaxTags·burst handles per thread and is
// always emptied by DrainCache, which every lease release and quiesce path
// calls (see DESIGN.md §11).
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

	// burst is the largest reclamation burst any SizeCache declared,
	// replayed onto late-attaching pools for every slot.
	burst atomic.Int32

	threads []hubThread

	bursts     atomic.Uint64 // FreeBatch calls received
	dispatches atomic.Uint64 // FreeBatch calls issued to pools
	staged     atomic.Int64  // records currently sitting in staging buffers

	// rec is the flight recorder; nil or disabled costs one branch per
	// dispatch/flush (obs methods are nil-safe).
	rec *obs.Recorder
}

// hubSub boxes an attached Arena so the routing slot is one atomic pointer.
type hubSub struct {
	a Arena
}

// hubThread is one thread's free-staging state. It is owned by whichever
// goroutine currently speaks for the slot — normally the leaseholder, but
// during recovery the goroutine running the slot's release (the holder on a
// voluntary or panic-unwind Release, the watchdog on a reap): FreeBatch,
// Free and DrainCache for a tid are only ever called by that one goroutine
// at a time, so the buffers need no locks. The handover is safe because the
// registry serializes it — a reaped slot's zombie is killed at its next
// delivery point (or its next public-API operation) before it can touch the
// buffers again, and the slot is not re-leased until recovery, including the
// DrainCache flush, has finished.
type hubThread struct {
	// tags[t] stages records owned by the pool attached under tag t.
	tags [MaxTags][]Ptr
	// thresh is the flush threshold (the thread's declared reclamation
	// burst); 0 disables cross-call staging — mixed bursts are still
	// grouped per owner but flushed before FreeBatch returns.
	thresh int
	_      [64]byte // keep neighbouring threads' staging state off one line
}

// HubStats is a snapshot of the Hub's free-path accounting. Dispatches per
// burst is the amortization the staging seam guards: ~1 means a reclamation
// burst costs one pool interaction however its owners interleave, exactly
// like a single-structure arena.
type HubStats struct {
	Bursts     uint64 // FreeBatch calls received from the scheme
	Dispatches uint64 // FreeBatch calls issued to owning pools
	Staged     int64  // records currently staged (not yet in any pool)
}

// NewHub returns an empty Hub with free-staging state for maxThreads dense
// thread slots. It is a valid Arena immediately — a scheme may be
// constructed over it before any pool is attached, since no handle can reach
// the scheme before its pool exists.
func NewHub(maxThreads int) *Hub {
	if maxThreads < 1 {
		maxThreads = 1
	}
	return &Hub{threads: make([]hubThread, maxThreads)}
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
		for tid := range h.threads {
			a.SizeCache(tid, burst)
		}
	}
	h.subs[tag].Store(&hubSub{a: a})
	h.n.Store(int32(tag + 1))
}

// Arenas returns the number of attached pools.
func (h *Hub) Arenas() int { return int(h.n.Load()) }

// MaxThreads returns the number of thread slots the Hub stages frees for.
func (h *Hub) MaxThreads() int { return len(h.threads) }

// Stats returns the Hub's free-path counters.
func (h *Hub) Stats() HubStats {
	return HubStats{
		Bursts:     h.bursts.Load(),
		Dispatches: h.dispatches.Load(),
		Staged:     h.staged.Load(),
	}
}

// Staged returns the number of records currently held in staging buffers
// across all threads: counted as freed by the scheme, not yet released to
// their pools. It must read zero once every lease is released (DrainCache
// empties staging), which the dstest drain assertions enforce.
func (h *Hub) Staged() int64 { return h.staged.Load() }

// route resolves p's owning pool, panicking on a tag no pool was attached
// under — a handle that cannot be routed is corrupt, never a benign state.
func (h *Hub) route(p Ptr) Arena {
	if s := h.subs[p.ArenaTag()].Load(); s != nil {
		return s.a
	}
	panic(fmt.Sprintf("mem: Hub cannot route %v (no arena attached under tag %d)", p, p.ArenaTag()))
}

// Free implements Arena by routing to the owning pool. Single frees bypass
// staging: the per-record path has no burst to amortize.
func (h *Hub) Free(tid int, p Ptr) {
	if h.rec.Sampling() {
		h.rec.NoteFree(uint64(p))
	}
	h.route(p).Free(tid, p)
}

// FreeBatch implements Arena. A uniform batch (one owner, nothing staged
// for it) is dispatched directly — the single-structure fast path pays only
// a tag scan. A mixed batch is staged per owner and each owner's buffer is
// flushed in one pool FreeBatch when it reaches the thread's declared
// reclamation burst, so interleaved retire streams cost one pool interaction
// per burst amortized instead of one per same-owner run. Without a declared
// burst (SizeCache never called for this tid) every touched owner is flushed
// before returning — still one dispatch per owner per call, and no record
// outlives the call in staging. The slice is not retained.
func (h *Hub) FreeBatch(tid int, ps []Ptr) {
	if len(ps) == 0 {
		return
	}
	h.bursts.Add(1)
	ht := &h.threads[tid]

	tag := ps[0].ArenaTag()
	uniform := true
	for _, p := range ps[1:] {
		if p.ArenaTag() != tag {
			uniform = false
			break
		}
	}
	if uniform && len(ht.tags[tag]) == 0 {
		h.dispatches.Add(1)
		h.noteFrees(tid, ps, obs.EvHubDispatch)
		h.route(ps[0]).FreeBatch(tid, ps)
		return
	}

	for _, p := range ps {
		t := p.ArenaTag()
		if h.subs[t].Load() == nil {
			panic(fmt.Sprintf("mem: Hub cannot route %v (no arena attached under tag %d)", p, t))
		}
		ht.tags[t] = append(ht.tags[t], p)
	}
	h.staged.Add(int64(len(ps)))
	for t := 0; t < int(h.n.Load()); t++ {
		if buf := ht.tags[t]; len(buf) > 0 && len(buf) >= ht.thresh {
			h.flushTag(tid, ht, t)
		}
	}
}

// flushTag hands one owner's staged records to its pool in a single
// FreeBatch and resets the buffer (capacity kept: it is bounded by the
// declared burst plus one batch).
func (h *Hub) flushTag(tid int, ht *hubThread, t int) {
	buf := ht.tags[t]
	h.dispatches.Add(1)
	h.staged.Add(-int64(len(buf)))
	h.noteFrees(tid, buf, obs.EvStageFlush)
	h.subs[t].Load().a.FreeBatch(tid, buf)
	ht.tags[t] = buf[:0]
}

// noteFrees records the dispatch/flush event and, while garbage-age samples
// are outstanding, matches the freed handles against the recorder's sample
// table to close retire→free residence measurements. One branch when the
// recorder is off.
func (h *Hub) noteFrees(tid int, ps []Ptr, c obs.Code) {
	if !h.rec.Enabled() {
		return
	}
	h.rec.Rec(tid, c, uint64(len(ps)))
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

// CarveSegment implements SegmentArena by routing to the owning pool.
func (h *Hub) CarveSegment(tid int, p Ptr, take int) (Ptr, Ptr) {
	sa, ok := h.route(p).(SegmentArena)
	if !ok {
		panic(fmt.Sprintf("mem: CarveSegment of %v routed to arena without segment support", p))
	}
	h.rec.Rec(tid, obs.EvSegCarve, uint64(take))
	return sa.CarveSegment(tid, p, take)
}

// Valid implements Arena by routing to the owning pool. A staged record
// reads as valid until its flush flips the slot generation: it is retired
// and unreachable either way, so the delayed flip postpones use-after-free
// detection, not safety (the slot cannot be recycled while staged).
func (h *Hub) Valid(p Ptr) bool { return h.route(p).Valid(p) }

// SizeCache implements Arena by fanning out to every attached pool (the
// scheme's reclamation burst can land wholly in any one structure's pool, so
// each must absorb it locally) and adopting burst as tid's staging flush
// threshold. The largest declared burst is recorded so pools attached later
// are sized identically (see Attach).
func (h *Hub) SizeCache(tid, burst int) {
	for {
		cur := h.burst.Load()
		if int32(burst) <= cur || h.burst.CompareAndSwap(cur, int32(burst)) {
			break
		}
	}
	if ht := &h.threads[tid]; burst > ht.thresh {
		ht.thresh = burst
	}
	for t := 0; t < int(h.n.Load()); t++ {
		h.subs[t].Load().a.SizeCache(tid, burst)
	}
}

// DrainCache implements Arena: tid's staged frees are flushed to their
// owning pools first — a record must never be stranded in staging across a
// lease release or slot quarantine — and then every pool's thread cache is
// drained to the shared shards, so a released thread slot strands no
// recyclable records in any structure. The order matters: a quiesce path
// frees the departing thread's bags through FreeBatch (which may stage)
// right before the registry's drain hook runs, and the staged records must
// reach their pools' caches before those caches are flushed.
func (h *Hub) DrainCache(tid int) {
	ht := &h.threads[tid]
	for t := 0; t < int(h.n.Load()); t++ {
		if len(ht.tags[t]) > 0 {
			h.flushTag(tid, ht, t)
		}
	}
	for t := 0; t < int(h.n.Load()); t++ {
		h.subs[t].Load().a.DrainCache(tid)
	}
}
