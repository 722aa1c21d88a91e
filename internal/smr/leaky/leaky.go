// Package leaky implements the paper's "none" baseline: retire is a no-op
// and records are never freed. It has the lowest per-operation overhead of
// any scheme and unbounded memory growth, providing the throughput ceiling
// and the memory-usage worst case in every experiment.
package leaky

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Scheme is the leaky (no reclamation) scheme. It embeds the limbo kernel
// like every other scheme, so it is a full registry member: a forced round
// is an empty bracketed collection, recovery finds every bag already empty,
// and retired records are dropped on the floor whether or not the retiring
// thread stays.
type Scheme struct {
	smr.Kernel
	gs []*guard
}

// New creates a leaky scheme for the given number of threads. The arena is
// only consulted to weigh retired segment handles and to drain a departing
// slot's caches; nothing is ever freed.
func New(arena mem.Arena, threads int) *Scheme {
	s := &Scheme{gs: make([]*guard, threads)}
	s.Init(smr.Spec{Name: "none", Arena: arena, Threads: threads, Attach: s.ResetSlot, Collect: func() {}})
	for i := range s.gs {
		s.gs[i] = &guard{}
		s.Bind(i, &s.gs[i].Limbo, s.gs[i])
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// GarbageBound implements smr.Scheme: leaky never frees, so garbage is
// unbounded by construction (the memory-usage worst case in every figure).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ResetSlot implements smr.Scheme: leaky announces nothing, so a slot has
// no state to clear.
func (s *Scheme) ResetSlot(int) {}

// guard counts what is retired and forgets it: every landing empties the
// bag without freeing.
type guard struct {
	smr.Limbo
	smr.NoProtect // nothing is ever freed, so nothing needs a barrier
}

// Landed implements smr.Policy: whatever landed — records or a segment
// handle — was counted by the kernel and is dropped.
func (g *guard) Landed(int) { g.Forget() }

// FullPass implements smr.Policy: every landing already emptied the bag, so
// a Drain has nothing to free.
func (g *guard) FullPass() {}
