// Package sigsim simulates the POSIX signal machinery NBR relies on
// (pthread_kill, sigsetjmp/siglongjmp) on top of the Go runtime, which owns
// real signals and offers no asynchronous goroutine interruption.
//
// Each participating thread owns a 64-bit state word that senders update:
//
//	bits 63..1  count of neutralization signals posted to the thread
//	bit  0      revoked flag (sticky: the slot's lease was reaped)
//
// The paper's per-thread `restartable` variable is not in the word: only the
// owner reads it (the handler runs at the owner's own delivery points) and
// senders only add posts, so it is an owner-local flag beside the owner's
// quiet ceiling. Entering and leaving a read phase therefore costs one atomic
// load each and no read-modify-write.
//
// SignalAll posts a signal by atomically incrementing every peer's count.
// Delivery is enforced at the points the paper's Assumption 4 needs it:
//
//   - Poll, invoked by the record-access barrier before every shared-record
//     access, observes any post that happened before the access and runs the
//     handler: restartable threads longjmp (here: panic with Neutralized,
//     recovered by the operation wrapper), non-restartable threads ignore.
//   - ClearRestartable, the restartable→non-restartable transition performed
//     by NBR's endΦread, is a load of the word, not a CAS. A post that the
//     load sees neutralizes the thread, which is the store-buffer race the
//     paper closes with its CAS on `restartable` (§4.3). A post the load does
//     not see comes after it in the total order of Go's sequentially
//     consistent atomics, and so after every reservation store that precedes
//     the load: the reclaimer's scan, which follows its post, sees them.
//
// Because real signal sends cost a syscall (~µs) and handlers cost a kernel
// round trip, the group charges configurable spin cycles per send and per
// delivery, so the NBR-vs-NBR+ signal-economy trade-off remains measurable.
package sigsim

import (
	"sync/atomic"

	"nbr/internal/obs"
)

// Neutralized is the panic payload used to emulate siglongjmp back to the
// sigsetjmp point at the start of the current read phase. smr.Execute
// recovers it and re-runs the operation body.
type Neutralized struct{}

// Revoked is the panic payload delivered to a thread whose slot lease was
// involuntarily revoked (the watchdog reaped an over-deadline holder). Unlike
// Neutralized it is terminal: smr.Execute does NOT recover it, so the zombie
// unwinds out of its operation instead of restarting on a slot that may
// already belong to a successor. The runtime's With wrapper converts the
// unwind into an error for the caller.
type Revoked struct{}

const (
	revokedBit = uint64(1)
	postUnit   = uint64(2) // one signal in the count field
)

// state is one thread's signal state, padded to a whole number of cache
// lines (two), so that delivery bookkeeping on one slot never shares a line
// with a neighbour's word, which senders add to and every BeginRead/EndRead
// loads.
type state struct {
	word atomic.Uint64
	// Owner-only fields (no atomics needed).
	// quiet is the largest value word can hold with nothing left for the
	// owner to handle: every post up to the last delivery or absorption
	// counted, the revoked bit clear (quietAt). Anything pending — a later
	// post, a revocation — puts word above it.
	quiet uint64
	// restartable is the paper's per-thread `restartable` flag. The handler
	// (deliver) runs only at the owner's own delivery points, so nobody else
	// ever reads it.
	restartable bool
	sink        uint64 // spin-cost accumulator, defeats dead-code elimination
	restartFrom int64  // post timestamp carried from a neutralizing delivery
	// lastPost is the recorder timestamp of the most recent SignalAll post
	// aimed at this slot (written by senders, read by the owner at delivery);
	// it closes the post→restart latency measurement.
	lastPost atomic.Int64
	// Statistics.
	sent        atomic.Uint64 // signals this thread sent (as reclaimer)
	neutralized atomic.Uint64 // deliveries that restarted this thread
	ignored     atomic.Uint64 // deliveries ignored (non-restartable)
	revoked     atomic.Uint64 // deliveries that killed a revoked occupant
	_           [48]byte
}

// Config sets the simulated costs, in spin iterations (~1ns each).
type Config struct {
	// SendSpin is charged to the sender per signalled peer, standing in for
	// the pthread_kill syscall (the overhead NBR+ exists to amortize).
	SendSpin int
	// HandleSpin is charged to the receiver per delivered signal, standing
	// in for the kernel-mode switch of running a signal handler.
	HandleSpin int
}

// Group is a set of threads that signal each other. Thread ids are dense in
// [0, N).
type Group struct {
	states []state
	cfg    Config
	active *ActiveSet
	rec    *obs.Recorder
}

// NewGroup creates a signal group for n threads, all signalable (the fixed-N
// mode). Lease-managed callers replace the mask with SetActive.
func NewGroup(n int, cfg Config) *Group {
	return &Group{states: make([]state, n), cfg: cfg, active: FullActiveSet(n)}
}

// SetActive replaces the group's signalable-slot mask. It must be called
// before the group is used concurrently (scheme construction time): the mask
// pointer itself is not synchronized, only its contents are.
func (g *Group) SetActive(a *ActiveSet) { g.active = a }

// SetRecorder attaches a flight recorder. Like SetActive it must be wired at
// construction time, before the group is used concurrently; a nil recorder
// (the default) keeps every instrumented path on its one-branch fast path.
func (g *Group) SetRecorder(r *obs.Recorder) { g.rec = r }

// Attach readies slot tid for a new occupant: any signals posted to the
// previous occupant (or to the vacant slot) are absorbed without running a
// handler, a pending revocation is acknowledged (the sticky revoked bit is
// cleared — only the next occupant may clear it, which is the ack the reaper
// protocol relies on), and the slot starts non-restartable. It must be called
// by the acquiring goroutine before the slot's first read phase, so a
// recycled tid can never be neutralized — or killed — by a post aimed at its
// predecessor.
func (g *Group) Attach(tid int) {
	s := &g.states[tid]
	for {
		old := s.word.Load()
		if s.word.CompareAndSwap(old, old&^revokedBit) {
			s.quiet, s.restartable = quietAt(old), false
			s.restartFrom = 0 // a stale predecessor latency must not be measured
			return
		}
	}
}

// N returns the number of threads in the group.
func (g *Group) N() int { return len(g.states) }

// SignalAll posts one neutralization signal to every *active* thread except
// self, charging the configured send cost per peer. It corresponds to the
// paper's signalAll: delivery is guaranteed (by the barriers above) to happen
// before the receiver's next shared-record access. Skipping inactive slots is
// safe because a slot is only inactive while no goroutine is inside an
// operation on it, and a goroutine that activates after this broadcast cannot
// hold pointers obtained before the records it would need were unlinked; it
// is also the point of dynamic membership — signal cost tracks live threads,
// not capacity.
func (g *Group) SignalAll(self int) {
	sent := uint64(0)
	now := g.rec.Clock() // 0 when the recorder is off
	g.active.Range(func(i int) {
		if i == self {
			return
		}
		g.states[i].word.Add(postUnit)
		if now != 0 {
			g.states[i].lastPost.Store(now)
		}
		g.states[self].sink = spin(g.cfg.SendSpin, g.states[self].sink)
		sent++
	})
	g.states[self].sent.Add(sent)
	if now != 0 && sent > 0 {
		g.rec.Rec(self, obs.EvSigPost, sent)
	}
}

// SetRestartable is the sigsetjmp point at the start of a read phase: it
// makes the thread restartable and absorbs any signals that arrived while it
// was quiescent or writing (their handlers would have been no-ops) or that
// caused the jump here (the restart consumed them). A revoked occupant is
// killed instead: a zombie must not start a new read phase on a slot that may
// already have a successor. A post that lands after the load is not absorbed:
// it is delivered at the next Poll or at ClearRestartable.
func (g *Group) SetRestartable(tid int) {
	s := &g.states[tid]
	old := s.word.Load()
	if old&revokedBit != 0 {
		g.deliver(tid, s, old)
	}
	s.quiet, s.restartable = quietAt(old), true
	if from := s.restartFrom; from != 0 {
		// This setjmp is the restart of a neutralized read phase: close the
		// post→restart latency opened at the delivery.
		s.restartFrom = 0
		g.rec.ObserveSince(obs.HistSignalLatency, from)
		g.rec.Rec(tid, obs.EvSigRestart, 0)
	}
}

// ClearRestartable is the read→write transition (endΦread's CAS on
// `restartable`, Algorithm 1 line 12). If a signal arrived since the thread
// became restartable, the transition fails and the thread is neutralized
// instead — it must not enter its write phase, because the reclaimer that
// signalled it may not see its reservations.
//
// One sequentially consistent load stands in for the paper's CAS. Every
// reservation store the caller made is an SC store that precedes this load,
// and a reclaimer's post precedes its reservation scan. In the single total
// order of SC operations either the post comes before the load, which then
// sees it and neutralizes, or the load comes before the post, and then the
// reservation stores come before the scan's loads, which see them. That is
// the guarantee the CAS gave, without writing a line a sender also writes.
func (g *Group) ClearRestartable(tid int) {
	s := &g.states[tid]
	if old := s.word.Load(); old > s.quiet {
		g.deliver(tid, s, old) // panics while restartable
	}
	s.restartable = false
}

// quietAt returns the quiet ceiling of a thread that has handled or absorbed
// everything in old. With the revoked bit clear, word ≤ quietAt(old) exactly
// when no post followed old's; with it set, word is above every ceiling.
func quietAt(old uint64) uint64 {
	return old &^ revokedBit
}

// Poll is the delivery barrier: it must be invoked before every access to a
// shared record. If signals are pending it runs the handler — restarting the
// thread when restartable, ignoring otherwise.
func (g *Group) Poll(tid int) {
	s := &g.states[tid]
	if old := s.word.Load(); old > s.quiet {
		g.deliver(tid, s, old)
	}
}

// PollWords exposes the two words Poll compares for thread tid, for a
// per-record barrier that inlines the comparison instead of calling Poll:
// Poll delivers nothing while word.Load() <= *quiet, so a caller that
// resolved the pair once may skip Poll for as long as that holds, and must
// call it — the only place a handler runs — as soon as it does not. quiet is
// owner-only: the pair belongs to tid's goroutine.
func (g *Group) PollWords(tid int) (word *atomic.Uint64, quiet *uint64) {
	s := &g.states[tid]
	return &s.word, &s.quiet
}

// deliver runs the signal handler for all outstanding posts in old. A sticky
// revocation outranks neutralization: it panics Revoked at EVERY delivery
// point until the next occupant's Attach acknowledges it, whatever the
// restartable flag says — the zombie must unwind, not restart.
func (g *Group) deliver(tid int, s *state, old uint64) {
	s.quiet = quietAt(old)
	s.sink = spin(g.cfg.HandleSpin, s.sink)
	pending := old / postUnit
	if old&revokedBit != 0 {
		s.revoked.Add(1)
		g.rec.Rec(tid, obs.EvSigKill, pending)
		panic(Revoked{})
	}
	if s.restartable {
		s.neutralized.Add(1)
		if g.rec.Enabled() {
			// Carry the post timestamp across the longjmp: the latency is
			// closed when the victim re-enters SetRestartable.
			s.restartFrom = s.lastPost.Load()
			g.rec.Rec(tid, obs.EvSigDeliver, pending)
		}
		panic(Neutralized{})
	}
	s.ignored.Add(1)
	g.rec.Rec(tid, obs.EvSigIgnore, pending)
}

// Revoke posts a sticky revocation to slot tid: every subsequent delivery
// point the occupant passes (Poll, a read-phase transition) panics Revoked
// until a successor's Attach clears the bit. It also counts as one posted
// signal, so the pending-post fast paths notice it. Unlike SignalAll this
// targets one slot and ignores the active mask: the reaper revokes a slot it
// has already unpublished.
func (g *Group) Revoke(tid int) {
	s := &g.states[tid]
	for {
		old := s.word.Load()
		if s.word.CompareAndSwap(old, (old|revokedBit)+postUnit) {
			return
		}
	}
}

// IsRevoked reports whether slot tid carries an unacknowledged revocation.
func (g *Group) IsRevoked(tid int) bool {
	return g.states[tid].word.Load()&revokedBit != 0
}

// Restartable reports the thread's restartable flag. The flag is
// owner-local: only tid itself may call this (tests use it to check a
// transition).
func (g *Group) Restartable(tid int) bool {
	return g.states[tid].restartable
}

// Posted returns how many signals have been posted to tid so far.
func (g *Group) Posted(tid int) uint64 {
	return g.states[tid].word.Load() / postUnit
}

// Delivered returns how many of tid's signals have been handled or absorbed.
// Only tid itself may call this (the counter is owner-local).
func (g *Group) Delivered(tid int) uint64 {
	return g.states[tid].quiet / postUnit
}

// Stats aggregates signal-traffic counters across the group.
type Stats struct {
	Sent        uint64 // signals sent by reclaimers
	Neutralized uint64 // deliveries that restarted a read phase
	Ignored     uint64 // deliveries ignored (thread not restartable)
	Revoked     uint64 // deliveries that killed a revoked occupant
}

// Stats returns a snapshot of the group's counters.
func (g *Group) Stats() Stats {
	var st Stats
	for i := range g.states {
		st.Sent += g.states[i].sent.Load()
		st.Neutralized += g.states[i].neutralized.Load()
		st.Ignored += g.states[i].ignored.Load()
		st.Revoked += g.states[i].revoked.Load()
	}
	return st
}

// spin burns roughly n cycles; the evolving accumulator is stored by callers
// to keep the loop observable.
func spin(n int, acc uint64) uint64 {
	for i := 0; i < n; i++ {
		acc = acc*2654435761 + uint64(i)
	}
	return acc
}
