// Package leaky implements the paper's "none" baseline: retire is a no-op
// and records are never freed. It has the lowest per-operation overhead of
// any scheme and unbounded memory growth, providing the throughput ceiling
// and the memory-usage worst case in every experiment.
package leaky

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Scheme is the leaky (no reclamation) scheme. It uses the limbo kernel for
// its counters only — the kernel is a field, not embedded, so none of the
// recovery seams (Quiescer, RoundForcer) exist: retired records are dropped
// on the floor whether or not the retiring thread stays.
type Scheme struct {
	k  smr.Kernel
	gs []*guard
}

// New creates a leaky scheme for the given number of threads. The arena is
// only consulted to weigh retired segment handles; nothing is ever freed.
func New(arena mem.Arena, threads int) *Scheme {
	s := &Scheme{gs: make([]*guard, threads)}
	s.k.Init(smr.Spec{Name: "none", Arena: arena, Threads: threads})
	for i := range s.gs {
		s.gs[i] = &guard{}
		s.k.Bind(i, &s.gs[i].Limbo, s.gs[i])
	}
	return s
}

// Name implements smr.Scheme.
func (s *Scheme) Name() string { return s.k.Name() }

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// Stats implements smr.Scheme.
func (s *Scheme) Stats() smr.Stats { return s.k.Stats() }

// GarbageBound implements smr.Scheme: leaky never frees, so garbage is
// unbounded by construction (the memory-usage worst case in every figure).
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ReclaimBurst implements smr.Scheme: leaky never frees, so there is no
// burst to size caches for.
func (s *Scheme) ReclaimBurst() int { return 0 }

// AttachRegistry implements smr.Member: leaky holds no per-thread
// reclamation state, so membership churn needs no hooks.
func (s *Scheme) AttachRegistry(*smr.Registry) {}

// Drain implements smr.Drainer as a no-op: there is nothing to reclaim.
func (s *Scheme) Drain(int) {}

// guard counts what is retired and forgets it: every landing empties the
// bag without freeing.
type guard struct {
	smr.Limbo
	smr.NoProtect // nothing is ever freed, so nothing needs a barrier
}

func (g *guard) Retire(p mem.Ptr) {
	g.Push(p)
	g.Forget()
}

func (g *guard) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	g.Handoff(len(ps))
	g.PushChunk(ps)
	g.Forget()
}

// Landed implements smr.Policy: a retired segment handle is counted for its
// member records by the kernel, then dropped like every other retire.
func (g *guard) Landed(int) { g.Forget() }

// FullPass implements smr.Policy; never reached (the kernel's Drain is not
// exposed).
func (g *guard) FullPass() {}
