package mem

import "fmt"

// This file is the segment layer: batch slot carving (AllocBatch) and
// Ptr-addressable segment records that stand for a whole contiguous run of
// member slots. A data structure that bulk-retires K records (a resized hash
// map's old bucket array) wraps the run in one segment handle and hands that
// single handle to its reclamation scheme; the scheme stamps, bags and scans
// the handle once, and the fan-out to the K member slots happens here, at
// free time, where it is one thread-cache append per member — allocator
// work that a per-record retire path would have paid anyway, without the
// K per-record shared-memory interactions on the scheme side.

// Run is a contiguous range of slots carved from one pool by AllocBatch.
// All members share one generation (fresh-carved slots are always on their
// first life), so member handles are derived by index arithmetic.
type Run struct {
	first Ptr
	n     int
}

// Len returns the number of slots in the run.
func (r Run) Len() int { return r.n }

// First returns the handle of the run's first slot.
func (r Run) First() Ptr { return r.first }

// At returns the handle of the i-th slot of the run. Valid because a run's
// members are consecutive slot indices sharing one generation and tag.
func (r Run) At(i int) Ptr {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("mem: Run.At(%d) out of range [0,%d)", i, r.n))
	}
	return r.first + Ptr(i)
}

// SegmentArena is implemented by arenas that support segment records: Pool
// directly, and Hub by routing on the handle's arena tag. Schemes resolve it
// once (AsSegmentArena) and treat a nil result as "no segments can exist
// here", which is exact — only a SegmentArena can create one.
type SegmentArena interface {
	Arena
	// SegmentWeight returns the member count of the run p stands for, or 0
	// when p is not a live segment handle.
	SegmentWeight(p Ptr) int
}

// AsSegmentArena returns a's segment interface, or nil when the arena cannot
// host segments (in which case no segment handle can ever reach a scheme
// bound to it).
func AsSegmentArena(a Arena) SegmentArena {
	sa, _ := a.(SegmentArena)
	return sa
}

// SegWeight returns the garbage-accounting weight of a retired handle: the
// member count if p is a live segment handle, else 1. A nil sa (arena
// without segment support) always weighs 1.
func SegWeight(sa SegmentArena, p Ptr) int {
	if sa != nil {
		if w := sa.SegmentWeight(p.Unmarked()); w > 0 {
			return w
		}
	}
	return 1
}

// AllocBatch carves n fresh contiguous slots in one bump-cursor claim and
// returns them as a Run, live (generation 1) and zeroed: batch carving only
// ever uses never-recycled address space, which the kernel zero-fills, so
// unlike Alloc the records are guaranteed zero and a caller stores only the
// fields it wants non-zero. Statistics account exactly as n Alloc calls would.
func (p *Pool[T]) AllocBatch(tid, n int) Run {
	if n <= 0 {
		panic(fmt.Sprintf("mem: AllocBatch of %d slots", n))
	}
	base := p.cursor.Add(uint64(n)) - uint64(n)
	p.ensureSlabs(base + uint64(n) - 1)
	for i := uint64(0); i < uint64(n); i++ {
		s := p.slotAt(uint32(base + i))
		// Fresh-carved slots are on generation 0 (free); flip to 1 (live).
		s.gen.v.Store(1)
	}
	p.threads[tid].allocs.Add(uint64(n))
	return Run{first: pack(uint32(base), 1, p.cfg.Tag, p.cfg.kind), n: n}
}

// NewSegment wraps run in a segment record: an ordinary slot (the value is
// unused) whose handle stands for the whole run. Retiring the handle through
// a scheme's RetireSegment costs the scheme one bag entry; freeing it (Free
// or FreeBatch, directly or via a Hub) fans out to the members first, then
// releases the handle slot itself.
func (p *Pool[T]) NewSegment(tid int, run Run) Ptr {
	if run.n <= 0 {
		panic("mem: NewSegment of empty run")
	}
	if !p.owns(run.first) {
		panic(fmt.Sprintf("mem: NewSegment of run %v in pool with tag %d kind %d", run.first, p.cfg.Tag, p.cfg.kind))
	}
	q, _ := p.Alloc(tid)
	p.segMu.Lock()
	if p.segs == nil {
		p.segs = make(map[uint32]Run)
	}
	p.segs[q.Idx()] = run
	p.nsegs.Add(1)
	p.segMu.Unlock()
	return q
}

// SegmentWeight implements SegmentArena.
func (p *Pool[T]) SegmentWeight(q Ptr) int {
	if p.nsegs.Load() == 0 {
		return 0
	}
	p.segMu.RLock()
	r, ok := p.segs[q.Unmarked().Idx()]
	p.segMu.RUnlock()
	if !ok {
		return 0
	}
	return r.n
}

// takeSeg removes q from the segment directory, returning its run. The
// read-locked existence probe keeps the common non-segment free at shared
// cost; only an actual segment free pays the exclusive lock.
func (p *Pool[T]) takeSeg(q Ptr) (Run, bool) {
	idx := q.Unmarked().Idx()
	p.segMu.RLock()
	_, ok := p.segs[idx]
	p.segMu.RUnlock()
	if !ok {
		return Run{}, false
	}
	p.segMu.Lock()
	r, ok := p.segs[idx]
	if ok {
		delete(p.segs, idx)
		p.nsegs.Add(-1)
	}
	p.segMu.Unlock()
	return r, ok
}

// freeRun releases every member of a segment's run into tid's thread cache:
// one cache append per member and at most one shared-shard flush for the
// whole fan-out, exactly the FreeBatch cost profile. Members are never
// themselves segment handles (a slot inside a live run cannot be recycled
// into one), so no recursive directory probe is needed.
func (p *Pool[T]) freeRun(tid int, r Run) {
	tc := &p.threads[tid]
	for i := 0; i < r.n; i++ {
		tc.free = append(tc.free, p.release(r.At(i)))
	}
	tc.frees.Add(uint64(r.n))
	if limit := int(tc.limit.Load()); len(tc.free) > 2*limit {
		p.flush(tc, tid, limit)
	}
}

// freeSegments fans out any segment handles in qs (called with nsegs > 0
// already established). The handles themselves remain in qs and are released
// as ordinary slots by the caller's normal path.
func (p *Pool[T]) freeSegments(tid int, qs []Ptr) {
	for _, q := range qs {
		if r, ok := p.takeSeg(q); ok {
			p.freeRun(tid, r)
		}
	}
}
