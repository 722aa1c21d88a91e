// Package derefs is the guardderef analyzer's corpus: arena accessor calls
// on paths where no read phase is open and no reservation covers the handle,
// lease use after Release, and the clean shapes — in-phase access, reserved
// post-phase access, and a released variable rebound before reuse.
package derefs

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

type node struct {
	key uint64
}

type store struct {
	pool *mem.Pool[node]
	head mem.Ptr
}

// peekAfterClose reads the record after the phase that protected it closed:
// Protect only covers the handle until EndRead.
func (s *store) peekAfterClose(g smr.Guard) uint64 {
	g.BeginRead()
	p := s.head
	g.Protect(0, p)
	g.EndRead()
	return s.pool.Raw(p).key // want "Raw outside any read phase"
}

// slotAfterClose resolves the slot after the phase closed: the one-lookup
// accessor hands out the same unvalidated record pointer Raw does, and a
// generation word to check it against only helps a copy taken under cover.
func (s *store) slotAfterClose(g smr.Guard) uint64 {
	b := smr.BarrierOf(g)
	g.BeginRead()
	p := s.head
	b.Protect(0, p)
	g.EndRead()
	n, gen := s.pool.Slot(p) // want "Slot outside any read phase"
	k := n.key
	if !gen.Is(p) {
		return 0
	}
	return k
}

// lockAfterClose reaches for the header word of a record nothing keeps live:
// MustSlot panics on a stale handle, but the record can be freed between its
// check and the write through the word.
func (s *store) lockAfterClose(g smr.Guard) {
	g.BeginRead()
	p := s.head
	g.Protect(0, p)
	g.EndRead()
	_, hdr := s.pool.MustSlot(p) // want "MustSlot outside any read phase"
	hdr.Word.Or(1)
}

// peekBetweenPhases pokes the arena on the gap between two brackets.
func (s *store) peekBetweenPhases(g smr.Guard) uint64 {
	g.BeginRead()
	g.EndRead()
	v, ok := s.pool.Get(s.head) // want "Get outside any read phase"
	g.BeginRead()
	g.EndRead()
	if !ok {
		return 0
	}
	return v.key
}

// useReleased touches the lease after giving its guard slot back.
func useReleased(r *smr.Registry) int {
	l, _ := r.Acquire()
	l.Release()
	return l.Tid() // want "use of lease l after Release"
}

// doubleRelease releases twice; the second call races the slot's next owner.
func doubleRelease(r *smr.Registry) {
	l, _ := r.Acquire()
	l.Release()
	l.Release() // want "use of lease l after Release"
}

// inPhasePeek is the ordinary clean shape: the accessor runs bracketed.
func (s *store) inPhasePeek(g smr.Guard) uint64 {
	g.BeginRead()
	v := s.pool.Raw(s.head).key
	g.EndRead()
	return v
}

// inPhaseSlot is the read helper's shape: barrier, one slot resolution, copy,
// generation re-check, all bracketed.
func (s *store) inPhaseSlot(g smr.Guard) (uint64, bool) {
	b := smr.BarrierOf(g)
	g.BeginRead()
	b.Protect(0, s.head)
	n, gen := s.pool.Slot(s.head)
	k := n.key
	if !gen.Is(s.head) {
		g.EndRead()
		return 0, b.Stale(s.head)
	}
	g.EndRead()
	return k, true
}

// reservedPeek is legal: the handle was Reserved inside the phase, so the
// post-EndRead access is covered until EndOp.
func (s *store) reservedPeek(g smr.Guard) uint64 {
	g.BeginRead()
	p := s.head
	g.Reserve(0, p)
	g.EndRead()
	return s.pool.Raw(p).key
}

// reservedLock is the write phase's shape: the handle was Reserved, so its
// header word may be locked through after EndRead.
func (s *store) reservedLock(g smr.Guard) {
	g.BeginRead()
	p := s.head
	g.Reserve(0, p)
	g.EndRead()
	_, hdr := s.pool.MustSlot(p)
	hdr.Word.Or(1)
}

// rebound is clean: the released variable is reassigned before reuse.
func rebound(r *smr.Registry) int {
	l, _ := r.Acquire()
	l.Release()
	l, _ = r.Acquire()
	return l.Tid()
}
