// Package hp implements Michael's hazard pointers. Before dereferencing a
// record, a thread announces its handle in one of K single-writer slots with
// a sequentially consistent store (the mfence/xchg the paper charges HP for)
// and then re-reads the link it came from to validate the record is still
// reachable (NeedsValidation). Retired records are buffered and freed by
// scanning all announcements once the buffer exceeds a threshold
// proportional to N·K, which bounds garbage at Θ(N²K) system-wide — property
// P2 at the price of per-record fencing (opposing P1, as the paper's list
// experiments show).
package hp

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Config tunes the scheme.
type Config struct {
	// Slots is the number of hazard-pointer slots per thread. Default 8.
	Slots int
	// Threshold is the per-thread retire-buffer size that triggers a scan;
	// it must exceed the number of records all threads can protect. Default
	// max(64, 2·N·Slots).
	Threshold int
}

func (c Config) withDefaults(threads int) Config {
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.Threshold <= 0 {
		c.Threshold = 2 * threads * c.Slots
		if c.Threshold < 64 {
			c.Threshold = 64
		}
	}
	return c
}

// Scheme is a hazard-pointer instance: the limbo kernel plus N·K
// announcement slots, a threshold trigger and an identity keep test.
type Scheme struct {
	smr.Kernel
	cfg   Config
	slots []smr.Pad64 // N*K announcement slots
	gs    []*guard

	// forceScan is the ForceRound collection scratch.
	forceScan smr.ScanSet
}

// New creates a hazard-pointer scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	cfg = cfg.withDefaults(threads)
	s := &Scheme{
		cfg:       cfg,
		slots:     make([]smr.Pad64, threads*cfg.Slots),
		forceScan: smr.NewScanSet(threads * cfg.Slots),
		gs:        make([]*guard, threads),
	}
	s.Init(smr.Spec{
		Name: "hp", Arena: arena, Threads: threads, Burst: cfg.Threshold,
		Attach:  s.ResetSlot,
		Collect: func() { s.forceScan.CollectRows(s.slots, cfg.Slots, s.ActiveMask) },
	})
	for i := range s.gs {
		g := &guard{
			s: s, hiSlot: -1,
			row:  s.slots[i*cfg.Slots : (i+1)*cfg.Slots],
			scan: smr.NewScanSet(threads * cfg.Slots),
		}
		s.Bind(i, &g.Limbo, g)
		s.gs[i] = g
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// GarbageBound implements smr.Scheme: each thread's retire buffer scans at
// the threshold (measured in record weight — a segment handle counts its
// whole member run) and a scan leaves at most N·K protected survivors, so
// the system-wide garbage never exceeds N·(Threshold + (N·K+1)·SegW) — the
// Θ(N²K) bound property P2 charges hazard pointers for. The +1 is the one
// in-flight RetireSegment append per thread: a segment lands whole
// (smr.Limbo.RetireSegment), so up to SegW records can land in one append
// before the post-append scan fires.
// Added on top is the orphan allowance: up to N concurrently departing
// threads can each strand one protected survivor set (≤ N·K entries, each
// worth up to SegW records) on the orphan list before the next scan adopts
// it.
func (s *Scheme) GarbageBound() int {
	n, segW := len(s.gs), s.SegW()
	return n*(s.cfg.Threshold+(n*s.cfg.Slots+1)*segW) + n*n*s.cfg.Slots*segW
}

// ResetSlot implements smr.Quiescer, and readies the slot for a new
// leaseholder: clear tid's hazard announcements.
func (s *Scheme) ResetSlot(tid int) {
	g := s.gs[tid]
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.hiSlot = -1
}

type guard struct {
	smr.Limbo
	s      *Scheme
	row    []smr.Pad64 // this thread's K announcement slots
	hiSlot int
	scan   smr.ScanSet // scan scratch, reused
}

// EndOp releases every hazard pointer the operation announced (Fig. 2c's
// unprotect-on-return).
func (g *guard) EndOp() {
	for i := 0; i <= g.hiSlot; i++ {
		g.row[i].Store(0)
	}
	g.hiSlot = -1
}

// Protect announces p in the slot. The store is sequentially consistent
// (Go's atomic store; an XCHG on x86-64), so a reclaimer scanning after
// retiring p either sees the announcement or the announcing thread's
// subsequent link validation sees the unlink — the standard HP argument.
func (g *guard) Protect(slot int, p mem.Ptr) {
	if slot >= len(g.row) {
		panic("hp: slot out of range")
	}
	if slot > g.hiSlot {
		g.hiSlot = slot
	}
	g.row[slot].Store(uint64(p.Unmarked()))
}

func (g *guard) NeedsValidation() bool { return true }

// Before implements smr.Policy: the next chunk is the records that fill the
// buffer exactly to the scan threshold, so the whole unlink pays one
// threshold check per threshold's worth of records (not one per record) and
// a single splice can never stretch the buffer — and the garbage bound —
// beyond Threshold plus the protected survivors. The scan trigger points
// are exactly the ones a per-record Retire loop would hit.
func (g *guard) Before(ps []mem.Ptr, _ int) int { return g.Chunk(len(ps)) }

// Landed implements smr.Policy, the trigger after every append: scan once the
// buffer's record weight reaches the threshold. A segment handle lands whole
// (hazards name the handle itself), so the scan that follows an oversized
// one drains it.
func (g *guard) Landed(int) {
	if g.Full() {
		g.pass(g.s.cfg.Threshold)
	}
}

// FullPass implements smr.Policy: adopt all orphans and scan once over
// everything the buffer holds.
func (g *guard) FullPass() { g.pass(0) }

// pass adopts up to max orphaned records (all when 0), so departed threads'
// garbage rides the same sweep, then collects every active thread's
// announcements and frees the unprotected remainder of the buffer.
func (g *guard) pass(max int) {
	g.Adopt(max)
	if len(g.Bag) > 0 {
		g.Scan(len(g.Bag), g.collect, g.scan.Contains)
	}
}

func (g *guard) collect() {
	g.scan.CollectRows(g.s.slots, g.s.cfg.Slots, g.s.ActiveMask)
}
