// Package era implements the two era-based schemes of the evaluation as one
// implementation with two announcement layouts. A global era clock advances
// every few allocations/retirements; every record carries its birth and
// retire eras in the allocator header (the per-record metadata the paper
// notes these schemes require), and a retired record is freed once its
// lifetime [birth, retire] intersects no announced interval — which bounds
// garbage even under stalled threads. Both require HP-style link validation
// after Protect (NeedsValidation).
//
//   - Hazard eras (NewHE; Ramalhete & Correia, SPAA'17, an extension beyond
//     the paper's benchmark set) keep hazard pointers' K per-thread slots
//     but announce the current *era* in them instead of a record address, so
//     re-protecting under an unchanged era is free. An announced era e is
//     the interval [e, e].
//   - 2GE interval-based reclamation (NewIBR; the "2geibr" variant the
//     paper benchmarks, from Wen et al., PPoPP'18) announces one interval
//     per thread: lo is fixed at operation start, hi is raised to the
//     current era at every record access.
//
// Everything else — the bag, the threshold trigger, batch chunking, segment
// accounting (a retired segment lands whole, as in every scheme), recovery —
// is the limbo kernel's (smr.Kernel).
package era

import (
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Config tunes either scheme.
type Config struct {
	// Slots is the number of era slots per thread (hazard eras only; IBR
	// announces one interval). Default 8.
	Slots int
	// EraFreq advances the era every EraFreq allocations+retirements per
	// thread. Default 128.
	EraFreq int
	// Threshold is the per-thread bag size that triggers a sweep. Default
	// max(64, 2·N·Slots) — with Slots at its default of 8 under IBR.
	Threshold int
}

func (c Config) withDefaults(threads int) Config {
	if c.Slots <= 0 {
		c.Slots = 8
	}
	if c.EraFreq <= 0 {
		c.EraFreq = 128
	}
	if c.Threshold <= 0 {
		c.Threshold = max(64, 2*threads*c.Slots)
	}
	return c
}

// Scheme is a hazard-eras or 2GE-IBR instance.
type Scheme struct {
	smr.Kernel
	cfg Config
	era smr.Pad64
	// interval selects the IBR layout: a row is [lo, hi]. Otherwise a row is
	// K hazard-era points. 0 means "no announcement" in both (eras start at
	// 1).
	interval bool
	width    int
	slots    []smr.Pad64 // N rows of width announcements
	gs       []*guard

	// forced is the ForceRound collection scratch.
	forced intervals
}

// NewHE creates a hazard-eras scheme for the given arena and thread count.
func NewHE(arena mem.Arena, threads int, cfg Config) *Scheme {
	cfg = cfg.withDefaults(threads)
	return newScheme("he", arena, threads, cfg, false, cfg.Slots)
}

// NewIBR creates a 2GE-IBR scheme for the given arena and thread count.
func NewIBR(arena mem.Arena, threads int, cfg Config) *Scheme {
	cfg.Slots = 0
	return newScheme("ibr", arena, threads, cfg.withDefaults(threads), true, 2)
}

func newScheme(name string, arena mem.Arena, threads int, cfg Config, interval bool, width int) *Scheme {
	s := &Scheme{
		cfg: cfg, interval: interval, width: width,
		slots:  make([]smr.Pad64, threads*width),
		gs:     make([]*guard, threads),
		forced: newIntervals(threads * width),
	}
	s.era.Store(1)
	s.Init(smr.Spec{
		Name: name, Arena: arena, Threads: threads, Burst: cfg.Threshold,
		Attach:  s.ResetSlot,
		Collect: func() { s.collect(&s.forced) },
	})
	for i := range s.gs {
		g := &guard{s: s, hiSlot: -1, row: s.slots[i*width : (i+1)*width], pins: newIntervals(threads * width)}
		s.Bind(i, &g.Limbo, g)
		s.gs[i] = g
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// GarbageBound implements smr.Scheme as the exact pinned-set bound. Garbage
// splits into two parts:
//
//   - buffered records: each thread's bag sweeps at the threshold (measured
//     in record weight, so it needs no scaling), and a sweep pass can
//     transiently hold one adopted-orphan batch on top, counted in entries
//     each worth up to SegW records — a static term. Before the append that
//     triggers a sweep, the bag beyond the last sweep's survivors (the
//     pinned term below) weighs under the threshold; a Retire or a
//     RetireBatch chunk then adds at most the records that reach it, but a
//     RetireSegment lands its run whole, up to SegW records in one append,
//     and the sweep follows it. So a thread buffers at most Threshold + SegW
//     records beyond its survivors, plus the adopted batch of at most
//     Threshold entries: Threshold + (Threshold+1)·SegW, which the declared
//     (Threshold+2)·SegW term covers with one SegW to spare. That in-flight
//     whole segment is the +SegW term hp and core carry too;
//   - pinned records: sweep survivors are exactly the records whose
//     lifetime intersects an announced interval. That set is measured, not
//     guessed: the kernel records every sweep's survivor weight, and the
//     bound carries the high-water mark (plus the orphaned-survivor peak
//     under membership churn).
//
// A static N·EraFreq-per-thread heuristic would overcharge quiet runs
// (nothing pinned) and is never honest under a stalled announcement (whose
// pinned set is bounded by records alive at the stalled era, not by
// EraFreq); the measured term is tight in the first case and adapts exactly
// in the second. Monotone by construction (watermarks only rise).
func (s *Scheme) GarbageBound() int {
	t := s.cfg.Threshold
	return len(s.gs)*(t+(t+2)*s.SegW()) + s.Pinned()
}

// ResetSlot implements smr.Scheme, and readies the slot for a new
// leaseholder: clear tid's announcements.
func (s *Scheme) ResetSlot(tid int) {
	g := s.gs[tid]
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.hiSlot = -1
}

// intervals is one snapshot of the active announcements as closed era
// intervals: a hazard era e is [e, e], an IBR reservation [lo, hi].
type intervals struct{ lo, hi []uint64 }

func newIntervals(n int) intervals {
	return intervals{lo: make([]uint64, 0, n), hi: make([]uint64, 0, n)}
}

// collect snapshots every active thread's announcements into iv.
func (s *Scheme) collect(iv *intervals) {
	iv.lo, iv.hi = iv.lo[:0], iv.hi[:0]
	s.ActiveMask.Range(func(tid int) {
		row := s.slots[tid*s.width : (tid+1)*s.width]
		if s.interval {
			if lo := row[0].Load(); lo != 0 {
				iv.lo, iv.hi = append(iv.lo, lo), append(iv.hi, row[1].Load())
			}
			return
		}
		for i := range row {
			if e := row[i].Load(); e != 0 {
				iv.lo, iv.hi = append(iv.lo, e), append(iv.hi, e)
			}
		}
	})
}

type guard struct {
	smr.Limbo
	s      *Scheme
	row    []smr.Pad64 // this thread's announcements
	hiSlot int         // highest hazard-era slot announced this operation
	events int         // allocations + retirements since the last era advance
	pins   intervals   // sweep scratch, reused
}

// BeginOp pins an IBR interval's lower end at the current era; hazard eras
// announce nothing until Protect.
func (g *guard) BeginOp() {
	if g.s.interval {
		e := g.s.era.Load()
		g.row[0].Store(e)
		g.row[1].Store(e)
	}
}

// EndOp clears every announcement the operation made.
func (g *guard) EndOp() {
	if g.s.interval {
		g.row[0].Store(0)
		g.row[1].Store(0)
		return
	}
	for i := 0; i <= g.hiSlot; i++ {
		g.row[i].Store(0)
	}
	g.hiSlot = -1
}

// Protect raises an announcement to the current era — the given hazard-era
// slot, or the IBR interval's upper end — storing only when the era moved
// (the fast path both schemes exist for). The caller then re-reads the link
// (NeedsValidation), so any record it goes on to access has a lifetime
// intersecting what is announced.
func (g *guard) Protect(slot int, _ mem.Ptr) {
	if g.s.interval {
		slot = 1
	} else if slot > g.hiSlot {
		if slot >= len(g.row) {
			panic("he: slot out of range")
		}
		g.hiSlot = slot
	}
	if e := g.s.era.Load(); g.row[slot].Load() < e {
		g.row[slot].Store(e)
	}
}

func (g *guard) NeedsValidation() bool { return true }

// OnAlloc stamps the record's birth era and ticks the era clock.
func (g *guard) OnAlloc(p mem.Ptr) {
	g.s.Arena.Hdr(p).SetBirth(g.s.era.Load())
	g.tick(1)
}

// Before implements smr.Policy: the next chunk is the records that fill the
// bag exactly to the sweep threshold, so the sweep triggers at the bag
// lengths a per-record Retire loop would hit and one oversized splice can
// never stretch the bag beyond the threshold plus its pinned survivors. One
// era load stamps the whole chunk, read after every record in the handoff
// was unlinked, so no stamp is older than a single-record Retire would have
// written. A segment is one handle whose one stamp covers all w members —
// the era schemes' whole win over per-record header writes; its birth era
// was stamped (OnAlloc) before the run was published, so a reader that
// reaches any member announces an era inside the handle's lifetime, and the
// sweep pins or frees the run whole.
func (g *guard) Before(ps []mem.Ptr, _ int) int {
	take := g.Chunk(len(ps))
	e := g.s.era.Load()
	for _, p := range ps[:take] {
		g.s.Arena.Hdr(p.Unmarked()).SetRetire(e)
	}
	return take
}

// Landed implements smr.Policy, the trigger after every append: tick the
// event clock by the w records that landed and sweep at the threshold.
func (g *guard) Landed(w int) {
	g.tick(w)
	if g.Full() {
		g.sweep(g.s.cfg.Threshold)
	}
}

// tick advances the event clock by n, advancing the era exactly as n
// single-event ticks would.
func (g *guard) tick(n int) {
	g.events += n
	for g.events >= g.s.cfg.EraFreq {
		g.events -= g.s.cfg.EraFreq
		g.s.era.Add(1)
		g.Advances.Inc()
	}
}

// FullPass implements smr.Policy: adopt all orphans and sweep once.
func (g *guard) FullPass() { g.sweep(0) }

// sweep adopts up to max orphaned records (all when 0) — their stamps were
// written when they were first retired, so the usual check applies — and
// frees every bag entry whose lifetime no active thread's announcement
// intersects.
func (g *guard) sweep(max int) {
	g.Adopt(max)
	if len(g.Bag) > 0 {
		g.Scan(len(g.Bag), g.collect, g.pinned)
	}
}

func (g *guard) collect() { g.s.collect(&g.pins) }

func (g *guard) pinned(p mem.Ptr) bool {
	hdr := g.s.Arena.Hdr(p)
	birth, retire := hdr.Birth(), hdr.Retire()
	for i, lo := range g.pins.lo {
		if retire >= lo && birth <= g.pins.hi[i] {
			return true
		}
	}
	return false
}
