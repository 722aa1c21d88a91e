// Package epoch implements the two global-epoch schemes the paper's E1
// comparison takes from the IBR benchmark, as one implementation with two
// announcement disciplines. A record retired under epoch e is stamped with e
// in its allocator header and freed once every active thread has announced
// an epoch ≥ e+2 (two full grace periods). Garbage is unbounded: a thread
// stalled inside an operation blocks the grace period and every bag grows
// until it recovers (property P2 is not met — what E2 demonstrates).
//
//   - QSBR (NewQSBR): threads announce passage through a quiescent state at
//     the *end* of each operation — one store per operation, nothing on
//     entry — so a registered thread that never runs stalls reclamation.
//   - RCU (NewRCU; userspace-RCU read-side critical sections around every
//     operation): each operation announces the epoch on entry and an idle
//     sentinel on exit, so the announcement is precise per operation and an
//     idle peer never blocks.
//
// The bag, recovery, segment accounting and the sweep are the limbo
// kernel's (smr.Kernel).
package epoch

import (
	"sort"

	"nbr/internal/mem"
	"nbr/internal/smr"
)

// idle is RCU's out-of-operation announcement. As the largest epoch it can
// never hold back an advance or lower a sweep's minimum, so neither needs to
// test for it.
const idle = ^uint64(0)

// Config tunes either scheme.
type Config struct {
	// Threshold is the per-thread bag size that triggers an epoch-advance
	// attempt and sweep. Default 256.
	Threshold int
}

// Scheme is a QSBR or RCU instance.
type Scheme struct {
	smr.Kernel
	threshold int
	// perOp selects the RCU discipline (announce per operation, idle
	// outside); otherwise QSBR's (announce at operation end).
	perOp    bool
	epoch    smr.Pad64
	announce []smr.Pad64
	gs       []*guard
}

// NewQSBR creates a QSBR scheme for the given arena and thread count.
func NewQSBR(arena mem.Arena, threads int, cfg Config) *Scheme {
	return newScheme("qsbr", arena, threads, cfg, false)
}

// NewRCU creates an RCU scheme for the given arena and thread count.
func NewRCU(arena mem.Arena, threads int, cfg Config) *Scheme {
	return newScheme("rcu", arena, threads, cfg, true)
}

func newScheme(name string, arena mem.Arena, threads int, cfg Config, perOp bool) *Scheme {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 256
	}
	s := &Scheme{
		threshold: cfg.Threshold, perOp: perOp,
		announce: make([]smr.Pad64, threads),
		gs:       make([]*guard, threads),
	}
	s.epoch.Store(2) // headroom so stamp+2 arithmetic never wraps below zero
	s.Init(smr.Spec{
		Name: name, Arena: arena, Threads: threads, Burst: cfg.Threshold,
		Attach: s.ResetSlot,
		// The collection reduces to a minimum, so a forced round keeps no
		// scratch.
		Collect: func() { s.minAnnounced() },
	})
	for i := range s.gs {
		if perOp {
			s.announce[i].Store(idle)
		}
		g := &guard{s: s}
		s.Bind(i, &g.Limbo, g)
		s.gs[i] = g
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// GarbageBound implements smr.Scheme: neither discipline bounds garbage.
func (s *Scheme) GarbageBound() int { return smr.Unbounded }

// ResetSlot implements smr.Scheme, and readies the slot for a new
// leaseholder: announce that tid holds no record pointers — the current
// epoch under QSBR, so a predecessor's ancient announcement can never stall
// the epoch the moment the slot re-activates; the idle sentinel under RCU.
func (s *Scheme) ResetSlot(tid int) {
	v := idle
	if !s.perOp {
		v = s.epoch.Load()
	}
	s.announce[tid].Store(v)
}

// minAnnounced is the grace-period snapshot: the oldest epoch any *active*
// thread still announces. A departed thread's stale announcement must never
// stall grace periods, and one that activates later starts at the current
// epoch, so it can never resurrect an older stamp.
func (s *Scheme) minAnnounced() uint64 {
	min := idle
	s.ActiveMask.Range(func(i int) {
		if a := s.announce[i].Load(); a < min {
			min = a
		}
	})
	return min
}

type guard struct {
	smr.Limbo
	smr.NoProtect // a read-side section needs no per-record barrier
	s             *Scheme
	sinceSweep    int
	min           uint64 // the sweep's grace-period snapshot
}

// BeginOp enters an RCU read-side critical section: announce the current
// epoch before any record access (sequentially consistent store, so
// reclaimers ordering their scans after it cannot miss the announcement).
// QSBR announces nothing on entry.
func (g *guard) BeginOp() {
	if g.s.perOp {
		g.s.announce[g.Tid()].Store(g.s.epoch.Load())
	}
}

// EndOp announces that the thread holds no record pointers: a quiescent
// state under QSBR, leaving the critical section under RCU.
func (g *guard) EndOp() { g.s.ResetSlot(g.Tid()) }

// Before implements smr.Policy: one epoch load stamps the whole handoff —
// a segment handle stamps for all its members — read after every record was
// unlinked, so no stamp is older than a per-record loop would have written,
// and the amortized sweep check in Landed runs once for it. Garbage is
// unbounded regardless, so nothing is split.
func (g *guard) Before(ps []mem.Ptr, _ int) int {
	e := g.s.epoch.Load()
	for _, p := range ps {
		g.s.Arena.Hdr(p.Unmarked()).SetRetire(e)
	}
	return len(ps)
}

// Landed implements smr.Policy, the trigger after every append. Amortized:
// when the epoch is stuck (a delayed thread), re-scanning on every retire
// would turn the bag into an O(n) cost per operation; real implementations
// retry a grace-period check only periodically.
func (g *guard) Landed(w int) {
	g.sinceSweep += w
	if g.Full() && g.sinceSweep >= g.s.threshold/4 {
		g.sinceSweep = 0
		g.pass()
	}
}

// FullPass implements smr.Policy: announce on tid's behalf that it holds no
// record pointers (the caller owns it), then one advance-and-sweep attempt.
// At quiescence three consecutive calls walk the two grace periods forward
// and empty the bag.
func (g *guard) FullPass() {
	g.s.ResetSlot(g.Tid())
	g.pass()
}

// pass adopts every orphan (their stamps travel in their headers), tries to
// advance the epoch and frees every bag entry that two grace periods
// separate from all active readers. Stamps never decrease along the bag, so
// those entries are a prefix; the pass finds its end by binary search rather
// than walk a bag that a stalled peer can grow without bound. The search only
// limits the sweep — the bracketed snapshot and keep test still decide every
// free — so an adopted orphan's older stamp behind newer ones costs it a
// delay, nothing else.
func (g *guard) pass() {
	g.Adopt(0)
	g.tryAdvance()
	g.collect()
	if upto := sort.Search(len(g.Bag), func(i int) bool { return g.pinned(g.Bag[i]) }); upto > 0 {
		g.Scan(upto, g.collect, g.pinned)
	}
}

// tryAdvance bumps the global epoch if no active thread still announces an
// older one.
func (g *guard) tryAdvance() {
	e := g.s.epoch.Load()
	if g.s.minAnnounced() >= e && g.s.epoch.CompareAndSwap(e, e+1) {
		g.Advances.Inc()
	}
}

func (g *guard) collect() { g.min = g.s.minAnnounced() }

func (g *guard) pinned(p mem.Ptr) bool {
	return g.s.Arena.Hdr(p).Retire()+2 > g.min
}
