// Package debra implements Brown's DEBRA (distributed epoch-based
// reclamation), the fastest EBR variant in the paper's comparison and its
// main baseline. The distinguishing features over plain EBR:
//
//   - per-thread limbo bags rotated on epoch change, so freeing needs no
//     per-record epoch tags: the bag is kept in epoch order and a mark
//     separates the previous epoch's records from the current one's (the bag
//     for epoch e−2 is always empty — the last rotation freed it);
//   - an amortized epoch advance: each operation start checks exactly one
//     peer, so the scan cost of a grace period is spread over ~n operations;
//   - a quiescent bit in the announcement word so idle threads never block
//     the epoch.
//
// DEBRA does not bound garbage: a stalled thread pins the epoch and every
// thread's bags grow until it recovers, at which point all threads free huge
// bags at once — the "reclamation burst" that contends on the allocator's
// shared free list (the effect the paper blames for DEBRA's fall-off at high
// thread counts).
package debra

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Scheme is a DEBRA instance.
type Scheme struct {
	smr.Kernel
	epoch    smr.Pad64
	announce []smr.Pad64 // epoch<<1 | active bit
	gs       []*guard
}

// New creates a DEBRA scheme for the given arena and thread count.
func New(arena mem.Arena, threads int) *Scheme {
	s := &Scheme{announce: make([]smr.Pad64, threads), gs: make([]*guard, threads)}
	s.epoch.Store(2)
	// Burst 0: rotation bursts have no declared size (bags grow with the
	// grace period), so the allocator keeps its default cache sizing.
	s.Init(smr.Spec{
		Name: "debra", Arena: arena, Threads: threads,
		Attach: s.attachThread,
		// DEBRA's organic reclamation (rotation) is not a bracketed scan at
		// all — its grace-period check is amortized one peer per operation —
		// so the registry's round clock advances only through forced rounds;
		// the collection is the full epoch check a rotation's worth of
		// BeginOps performs.
		Collect: func() { s.stuck(-1, s.epoch.Load()) },
	})
	for i := range s.gs {
		s.announce[i].Store(2 << 1) // epoch 2, quiescent
		g := &guard{s: s, localE: 2}
		s.Bind(i, &g.Limbo, g)
		s.gs[i] = g
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// GarbageBound implements smr.Scheme: DEBRA does not bound garbage — a
// stalled thread pins the epoch and every bag grows until it recovers (the
// property-P2 failure E2 demonstrates).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// attachThread readies slot tid for a new leaseholder: adopt the current
// epoch quiescently so the predecessor's announcement cannot pin the epoch
// or trip the next BeginOp's rotation logic. The bag is empty (recovery
// orphaned it), so adopting an epoch rotates nothing.
func (s *Scheme) attachThread(tid int) {
	g := s.gs[tid]
	g.localE, g.scanAt = s.epoch.Load(), 0
	s.ResetSlot(tid)
}

// ResetSlot implements smr.Scheme: announce tid quiescent at its last
// local epoch so a vacant slot cannot pin the epoch. Recovery has emptied
// the bag, so the rotation mark restarts with it.
func (s *Scheme) ResetSlot(tid int) {
	g := s.gs[tid]
	g.mark = 0
	s.announce[tid].Store(g.localE << 1)
}

// stuck reports whether any active thread other than self is still inside
// an operation it began under an epoch older than e. A quiescent or departed
// thread must never pin the epoch (the membership half of dynamic DEBRA).
func (s *Scheme) stuck(self int, e uint64) bool {
	stuck := false
	s.ActiveMask.Range(func(peer int) {
		if v := s.announce[peer].Load(); peer != self && v&1 != 0 && v>>1 < e {
			stuck = true
		}
	})
	return stuck
}

type guard struct {
	smr.Limbo
	smr.NoProtect // an epoch section needs no per-record barrier
	s             *Scheme
	localE        uint64
	// mark splits the bag, which is in retire order: Bag[:mark] was retired
	// under epoch localE−1, Bag[mark:] under localE.
	mark   int
	scanAt int // next peer to check in the amortized scan
}

// BeginOp is DEBRA's leaveQstate: adopt the current epoch (rotating and
// freeing limbo bags if it moved), announce it with the active bit, and
// advance the amortized one-peer-per-operation epoch scan.
func (g *guard) BeginOp() {
	e := g.s.epoch.Load()
	if e != g.localE {
		g.rotate(e, len(g.Bag))
	}
	g.s.announce[g.Tid()].Store(e<<1 | 1)

	peer := g.scanAt
	v := g.s.announce[peer].Load()
	// A peer passes the check when quiescent, caught up to the current
	// epoch, or simply not a member.
	if v&1 == 0 || v>>1 >= e || !g.s.ActiveMask.Active(peer) {
		g.scanAt++
		if g.scanAt == len(g.s.announce) {
			g.scanAt = 0
			if g.s.epoch.CompareAndSwap(e, e+1) {
				g.Advances.Inc()
			}
		}
	}
}

// EndOp is enterQstate: clear the active bit, keeping the epoch bits.
func (g *guard) EndOp() {
	g.s.announce[g.Tid()].Store(g.localE << 1)
}

// Before implements smr.Policy: a retire handoff is filed into the bag of
// the epoch current *now* (not at operation start), after one epoch check
// and at most one rotation. The global epoch may have advanced once
// mid-operation, and a record unlinked under the newer epoch can be held by
// readers that adopted it, so filing it under the stale epoch would shrink
// the two-epoch safety margin to one; the epoch is read after every record
// in the handoff was unlinked, so none is filed under an epoch older than a
// per-record Retire loop would have used. Garbage is unbounded regardless,
// so nothing is split, and a segment's members ride the rotation burst
// through the arena's fan-out. Freeing happens wholesale at rotation, which
// is what makes DEBRA fast and its reclamation bursty.
func (g *guard) Before(ps []mem.Ptr, _ int) int {
	g.catchUp()
	return len(ps)
}

// catchUp pulls every orphaned record into the bag, then adopts the current
// epoch (rotating if it moved) with the orphans filed at the current epoch's
// end of the bag. The order matters: the epoch is read after the orphans were
// taken, so it is no older than the one any of them was retired under, and
// filing them under it guarantees none is freed before rotate(e+2) — two full
// grace periods after its retirement. An epoch read before the adoption can
// be stale by the time a just-departed thread's records arrive (the adopter
// preempted in between), which would file a record retired under e+1 as e and
// free it one grace period early; filing under a stale localE would be worse
// (a drain guard can lag the epoch by ≥2, which would free adopted records
// with no grace period at all). Rotation here must not touch the thread's
// announcement — raising it mid-operation would unpin records this operation
// still holds.
func (g *guard) catchUp() {
	own := len(g.Bag)
	g.Adopt(0)
	if e := g.s.epoch.Load(); e != g.localE {
		g.rotate(e, own)
	}
}

// FullPass implements smr.Policy: catch up, attempt one epoch advance and
// rotate on behalf of the guard, leaving it announced quiescent. At
// quiescence three consecutive calls walk the grace periods forward and
// empty the bag.
func (g *guard) FullPass() {
	g.catchUp()
	e := g.localE
	if !g.s.stuck(g.Tid(), e) && g.s.epoch.CompareAndSwap(e, e+1) {
		g.Advances.Inc()
		g.rotate(e+1, len(g.Bag))
	}
	g.s.announce[g.Tid()].Store(g.localE << 1)
}

// rotate adopts epoch e for the guard's own records Bag[:own]; anything past
// them was adopted just now and belongs to epoch e itself. Own records retired
// under epoch e−2 (the bag below the mark) — or all of them, if the epoch
// jumped by ≥2 — are past two grace periods and freed in one burst; what was
// the current epoch's bag becomes the previous one's.
func (g *guard) rotate(e uint64, own int) {
	upto := g.mark
	if e >= g.localE+2 {
		upto = own
	}
	g.Sweep(upto, func(mem.Ptr) bool { return false })
	g.mark = own - upto
	g.localE = e
	g.scanAt = 0 // scan progress was for the previous epoch
}
