// Package core implements the paper's contribution: NBR (neutralization
// based reclamation, Algorithm 1) and its optimized variant NBR+
// (Algorithm 2).
//
// Each thread accumulates unlinked records in a private limbo bag. When the
// bag reaches the HiWatermark the thread signals all peers (sigsim stands in
// for pthread_kill); peers in a read phase are neutralized — they jump back
// to the start of Φread, discarding every private pointer — while peers in a
// write phase keep running but have already published *reservations* for the
// records they will touch. The reclaimer then scans all reservations and
// frees every unreserved record in its bag, which bounds garbage at
// HiWatermark + R·(N−1) records per thread (the paper's Lemma 10) without
// per-record fences on the read path.
//
// NBR+ adds per-thread even/odd announcement timestamps around signalAll.
// A thread whose bag crosses the LoWatermark bookmarks its bag position,
// snapshots all timestamps, and thereafter watches for any peer's timestamp
// to grow by ≥2 — proof that a complete relaxed grace period (RGP: signals
// begun *and* finished) happened after the bookmark, so everything retired
// before the bookmark is reclaimable without sending any signals of its own.
// In the best case all n threads reclaim after a single n−1-signal RGP
// instead of n(n−1) signals.
package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Config tunes NBR/NBR+.
type Config struct {
	// Plus selects NBR+ (Algorithm 2) instead of NBR (Algorithm 1).
	Plus bool
	// BagSize is the limbo-bag HiWatermark S (paper: 32k on a 192-thread
	// machine; default 1024, scaled for this host — see DESIGN.md §6).
	BagSize int
	// LoFraction places the NBR+ LoWatermark at LoFraction·BagSize.
	// Default 0.5 ("one half full").
	LoFraction float64
	// ScanFreq amortizes the NBR+ announceTS scan over this many retire
	// calls while between the watermarks ("we amortize the overhead of
	// scanning announceTS over many retire operations"). Default 32.
	ScanFreq int
	// Slots is R, the per-thread reservation capacity. The paper's data
	// structures need at most 3; default 4. R·N must stay well below
	// BagSize so reclamation always makes progress.
	Slots int
	// Signals configures the simulated signal costs.
	Signals sigsim.Config
}

func (c Config) withDefaults() Config {
	if c.BagSize <= 0 {
		c.BagSize = 1024
	}
	if c.LoFraction <= 0 || c.LoFraction >= 1 {
		c.LoFraction = 0.5
	}
	if c.ScanFreq <= 0 {
		c.ScanFreq = 32
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	return c
}

// maxSlots is the largest R a guard's dirty mask can track.
const maxSlots = 64

// Scheme is an NBR or NBR+ instance bound to one arena.
type Scheme struct {
	// Kernel owns the limbo bags, counters, segment accounting, membership
	// (the active mask every reservation scan and signal broadcast iterates),
	// the recovery path, and the signal group's wiring (Spec.Signals); this
	// type adds NBR's announcement layout, watermark trigger and reservation
	// keep test.
	smr.Kernel
	cfg   Config
	group *sigsim.Group

	// loWm is the NBR+ LoWatermark in records, fixed at construction so the
	// Retire fast path never touches floating point.
	loWm int

	// reservations is the shared SWMR array (Algorithm 1 line 5):
	// N rows of R slots, row i written only by thread i.
	reservations []smr.Pad64

	// announceTS is NBR+'s per-thread RGP timestamp (Algorithm 2 line 4):
	// odd while the thread is broadcasting signals, even otherwise.
	announceTS []smr.Pad64

	// forceScan is the ForceRound collection scratch (the kernel serializes
	// forced rounds; guards never touch this scratch).
	forceScan smr.ScanSet

	gs []*guard
}

// New creates an NBR/NBR+ scheme for the given arena and thread count.
func New(arena mem.Arena, threads int, cfg Config) *Scheme {
	cfg = cfg.withDefaults()
	if cfg.Slots > maxSlots {
		panic(fmt.Sprintf("core: Config.Slots (%d) above %d", cfg.Slots, maxSlots))
	}
	if threads*cfg.Slots >= cfg.BagSize {
		panic(fmt.Sprintf("core: N·R (%d) must be below BagSize (%d) or reclamation cannot progress",
			threads*cfg.Slots, cfg.BagSize))
	}
	s := &Scheme{
		cfg:          cfg,
		loWm:         int(float64(cfg.BagSize) * cfg.LoFraction),
		group:        sigsim.NewGroup(threads, cfg.Signals),
		reservations: make([]smr.Pad64, threads*cfg.Slots),
		announceTS:   make([]smr.Pad64, threads),
		forceScan:    smr.NewScanSet(threads * cfg.Slots),
	}
	name := "nbr"
	if cfg.Plus {
		name = "nbr+"
	}
	s.Init(smr.Spec{
		Name: name, Arena: arena, Threads: threads, Burst: cfg.BagSize,
		Attach: s.attachThread,
		Collect: func() {
			s.forceScan.CollectRows(s.reservations, cfg.Slots, s.ActiveMask)
		},
		Signals: s.group,
	})
	s.gs = make([]*guard, threads)
	for i := range s.gs {
		g := &guard{
			s:    s,
			row:  s.reservations[i*cfg.Slots : (i+1)*cfg.Slots],
			scan: smr.NewScanSet(threads * cfg.Slots),
		}
		s.Bind(i, &g.Limbo, g)
		s.gs[i] = g
	}
	return s
}

// Guard implements smr.Scheme.
func (s *Scheme) Guard(tid int) smr.Guard { return s.gs[tid] }

// ThreadBound returns the worst-case number of unreclaimed records one
// thread can hold: Lemma 10's HiWatermark + R·(N−1), with the batch-split
// overshoot folded in. RetireBatch appends at most one bag-weight's worth of
// records between watermark checks (the chunk cap in Before), so a
// splice of any length stretches the bag by at most BagSize beyond the
// watermark — 2·BagSize total for the watermark terms. The segW terms cover
// segment handles, each pinning up to MaxWeight member records: the N·R
// survivors a scan can find reserved, plus the one in-flight RetireSegment
// append — a segment lands whole (smr.Limbo.RetireSegment), so up to SegW
// records can land in one append after the watermark check.
func (s *Scheme) ThreadBound() int {
	return 2*s.cfg.BagSize + (len(s.gs)*s.cfg.Slots+1)*s.SegW()
}

// GarbageBound implements smr.Scheme: the enforced system-wide bound is
// every thread at its Lemma 10 worst case simultaneously, plus the orphan
// allowance — under dynamic membership, up to N concurrently departing
// threads can each strand one survivor set (records peers still reserve,
// ≤ N·R each, each worth up to SegW records) on the orphan list before the
// next reclaimer adopts it. The declaration is against MaxThreads and holds
// across membership churn.
func (s *Scheme) GarbageBound() int {
	n := len(s.gs)
	return n*s.ThreadBound() + n*n*s.cfg.Slots*s.SegW()
}

// attachThread readies slot tid for a new leaseholder: stale signal posts
// aimed at the predecessor are absorbed, the reservation row is cleared, and
// the NBR+ lease-local watermark state is reset. announceTS is deliberately
// left monotone across occupants — a peer's bookmark snapshot of this slot
// then remains sound: any observed +2 still certifies a complete broadcast
// that happened after the snapshot, whoever occupied the slot.
func (s *Scheme) attachThread(tid int) {
	s.group.Attach(tid)
	s.ResetSlot(tid)
	s.gs[tid].bookmark = 0
}

// ResetSlot implements smr.Scheme: neutralize tid's announcement state.
// announceTS stays monotone across occupants (see attachThread).
func (s *Scheme) ResetSlot(tid int) {
	g := s.gs[tid]
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.cleanUp()
}

// LimboLen reports thread tid's current limbo-bag population (test hook;
// call only from tid or while tid is quiescent).
func (s *Scheme) LimboLen(tid int) int { return len(s.gs[tid].Bag) }

// TSScans reports how many announceTS scans thread tid has performed (test
// hook for the record-counted ScanFreq cadence; NBR+ only).
func (s *Scheme) TSScans(tid int) uint64 { return s.gs[tid].tsScans.Load() }

type guard struct {
	// Limbo is the kernel's bag (the paper's limbo bag), counters and the
	// Guard methods NBR leaves as no-ops.
	smr.Limbo
	s *Scheme

	// row is this thread's reservation row, sliced out of the shared array
	// once at construction so Reserve/BeginRead never multiply tid·R.
	row  []smr.Pad64
	scan smr.ScanSet // reclaim scratch, reused across scans
	// dirty has bit i set when row[i] may hold a reservation: Reserve sets
	// it, BeginRead clears the slots it names and then the mask. Owner-only.
	// FullPass and ResetSlot zero the whole row and leave the mask alone, so
	// a bit may be stale; that costs BeginRead one redundant store.
	dirty uint64

	// NBR+ LoWatermark state (Algorithm 2 lines 1–3). atLoWm is the
	// inverse of the paper's firstLoWmEntryFlag.
	atLoWm   bool
	bookmark int // bag index corresponding to bookmarkTail
	// scanTS is the announceTS snapshot taken at the bookmark, built on the
	// guard's first LoWatermark entry (plain NBR never takes one).
	scanTS    []uint64
	sinceScan int

	// readFrom is the recorder clock at BeginRead (0 when not measured);
	// owner-only, closed into the read-phase histogram at EndRead.
	readFrom int64

	tsScans smr.Counter // NBR+ announceTS scans (cadence observability)
}

// BeginRead is beginΦread (Algorithm 1 lines 6–9): clear the reservation
// row, then become restartable. The order matters — a reclaimer scanning
// after a signal must not see reservations from a previous operation once
// this thread can be neutralized. Only the slots Reserve wrote since the last
// BeginRead can be non-zero, so only those are stored to: an operation that
// reserved nothing (a Contains) pays no store here. Afterwards the whole row
// reads zero. SetRestartable is also the sigsetjmp point: neutralization
// unwinds to smr.Execute, which re-runs the operation body, landing here
// again.
func (g *guard) BeginRead() {
	for d := g.dirty; d != 0; d &= d - 1 {
		g.row[bits.TrailingZeros64(d)].Store(0)
	}
	g.dirty = 0
	if g.s.Rec.Enabled() {
		g.readFrom = g.s.Rec.Clock()
		g.s.Rec.Rec(g.Tid(), obs.EvReadBegin, 0)
	}
	g.s.group.SetRestartable(g.Tid())
}

// Reserve announces a record the upcoming write phase will access
// (Algorithm 1 line 11) with one sequentially consistent store, and marks
// the slot for the next BeginRead to clear. It must be followed by EndRead
// before the record is written.
func (g *guard) Reserve(i int, p mem.Ptr) {
	if i >= len(g.row) {
		panic("core: reservation slot out of range; raise Config.Slots")
	}
	g.row[i].Store(uint64(p.Unmarked()))
	g.dirty |= 1 << i
}

// EndRead is endΦread (Algorithm 1 line 12): one load of the signal word in
// place of the paper's CAS on restartable. sigsim.ClearRestartable argues
// why that load still orders every Reserve store before the scan of any
// reclaimer whose signal it does not see.
func (g *guard) EndRead() {
	g.s.group.ClearRestartable(g.Tid())
	if from := g.readFrom; from != 0 {
		// Only a successful transition lands here: a neutralized EndRead
		// panics above, leaving the phase open on the timeline (exactly what
		// a stall dump should show) until the restart's BeginRead reopens it.
		g.readFrom = 0
		g.s.Rec.ObserveSince(obs.HistReadPhase, from)
		g.s.Rec.Rec(g.Tid(), obs.EvReadEnd, 0)
	}
}

// Protect is NBR's record-access barrier: deliver any pending neutralization
// signal before the record is touched (the paper's Assumption 4).
func (g *guard) Protect(_ int, _ mem.Ptr) {
	g.s.group.Poll(g.Tid())
}

// ProtectWords implements smr.FastProtect: Protect is exactly Poll, so a
// traversal may skip it while Poll's own comparison says nothing is pending.
func (g *guard) ProtectWords() (*atomic.Uint64, *uint64) {
	return g.s.group.PollWords(g.Tid())
}

// OnStale handles a read that found a freed slot. Frees are ordered after
// signal posts, so a pending signal must now be visible and the re-poll
// neutralizes this thread; if it does not, the scheme itself is broken.
func (g *guard) OnStale(p mem.Ptr) {
	g.s.group.Poll(g.Tid())
	panic("core: use-after-free not explained by a pending signal: " + p.String())
}

// Before implements smr.Policy: Algorithm 1 lines 14–20 (NBR) or Algorithm
// 2 lines 5–26 (NBR+), the watermark bookkeeping for the next chunk of a
// retire handoff (avail record-weight is ready), once per chunk instead of
// once per record. It returns how much weight may be appended before the
// next check. All comparisons run on BagW, the bag's record weight, so a
// segment handle counts its whole member run; a segment lands whole (NBR
// reservations name the retired handle itself and the sweep matches bag
// entries against them by identity), a one-append overshoot the bound's
// segment-weight term absorbs (see ThreadBound). Chunks are capped so that
// every trigger the per-record loop would hit lands exactly on a chunk
// boundary, which restores Lemma 10's bound for a splice of any length:
// the HiWatermark (reclamation), and under NBR+ also the LoWatermark (the
// bookmark must be taken at lo, not skipped by a chunk that jumps straight
// to hi — otherwise batch-heavy traffic never enters the passive RGP path
// and pays the full signalAll cost) and the remaining ScanFreq budget (so
// announceTS scans fire at the same record counts as the loop, with no
// overshoot discarded).
func (g *guard) Before(_ []mem.Ptr, avail int) int {
	if g.s.cfg.Plus {
		g.checkPlus()
	} else if g.BagW >= g.s.cfg.BagSize {
		// A reclamation is due anyway: adopt up to one bag's worth of
		// orphaned records so departed threads' garbage rides this scan.
		g.Adopt(g.s.cfg.BagSize)
		g.signalAll()
		g.reclaimFreeable(len(g.Bag))
	}
	take := g.s.cfg.BagSize - g.BagW
	if g.s.cfg.Plus {
		if !g.atLoWm {
			if room := g.s.loWm - g.BagW; room > 0 && room < take {
				take = room
			}
		} else if room := g.s.cfg.ScanFreq - g.sinceScan; room > 0 && room < take {
			take = room
		}
	}
	if take < 1 {
		// Reached when weighted survivors pin the bag at or past the
		// watermark: a reclamation leaves at most N·R bag entries, but each
		// may be a segment handle worth up to SegW records, so BagW
		// can exceed BagSize even though N·R < BagSize. Degrade to
		// per-record checks rather than stalling; the overshoot stays within
		// ThreadBound's survivor terms.
		take = 1
	}
	if take > avail {
		take = avail
	}
	if g.s.cfg.Plus && g.atLoWm {
		// The announceTS scan cadence counts records, not retire handoffs:
		// a structure retiring mostly via RetireBatch must reach the
		// passive-reclamation scan exactly as often as one retiring the
		// same records one by one (ROADMAP item from PR 2).
		g.sinceScan += take
	}
	return take
}

// checkPlus is the NBR+ watermark logic.
func (g *guard) checkPlus() {
	hi, lo := g.s.cfg.BagSize, g.s.loWm
	switch {
	case g.BagW >= hi:
		// RGP begin (odd) … signalAll … RGP end (even). Orphans adopted
		// first so departed threads' garbage rides the same scan.
		g.Adopt(hi)
		g.signalAll()
		g.reclaimFreeable(len(g.Bag))
		g.cleanUp()
	case g.BagW >= lo:
		if !g.atLoWm {
			g.atLoWm = true
			g.bookmark = len(g.Bag)
			if g.scanTS == nil {
				g.scanTS = make([]uint64, len(g.s.announceTS))
			}
			for i := range g.s.announceTS {
				g.scanTS[i] = g.s.announceTS[i].Load()
			}
			g.sinceScan = 0
			return
		}
		if g.sinceScan < g.s.cfg.ScanFreq {
			return
		}
		g.sinceScan = 0
		g.tsScans.Inc()
		// Only active peers can complete an RGP, so the check walks the
		// membership mask; the bookmark snapshot covers every slot (all
		// announceTS values are monotone across occupants), so a peer that
		// activated after the snapshot compares against its predecessor's
		// value — which can only make the +2 test harder, never easier.
		certified := false
		g.s.ActiveMask.Range(func(otid int) {
			if certified {
				return
			}
			// An odd snapshot caught otid mid-broadcast: that RGP began
			// before our bookmark, so its completion alone proves nothing
			// about records bookmarked after its signals went out. Round the
			// snapshot up to the next even value (the in-flight RGP's end):
			// base+1 is then the first post-bookmark RGP begin and base+2
			// its end, so any observed ts ≥ base+2 — the counter is monotone
			// and steps by one, so an odd ts ≥ base+3 also proves base+2 was
			// passed — certifies a complete post-bookmark broadcast.
			base := g.scanTS[otid]
			base += base & 1
			if g.s.announceTS[otid].Load() >= base+2 {
				certified = true
			}
		})
		if certified {
			// A peer began and finished a full signal broadcast after our
			// bookmark: everything retired before the bookmark has been
			// discarded or reserved by every thread.
			g.reclaimFreeable(g.bookmark)
			g.cleanUp()
		}
	}
}

// cleanUp resets the LoWatermark bookkeeping (Algorithm 2 lines 27–29).
func (g *guard) cleanUp() {
	g.atLoWm = false
	g.sinceScan = 0
}

// signalAll neutralizes every peer; under NBR+ the broadcast is bracketed as
// one RGP: begin (odd) … signalAll … end (even). A broadcast that unwinds
// (revocation) leaves the timestamp odd, which certifies nothing.
func (g *guard) signalAll() {
	ts := &g.s.announceTS[g.Tid()]
	if g.s.cfg.Plus {
		ts.Add(1)
	}
	g.s.group.SignalAll(g.Tid())
	if g.s.cfg.Plus {
		ts.Add(1)
	}
}

// FullPass implements smr.Policy: adopt all orphans and run one full
// signal-and-scan reclamation over everything the bag holds. Records reserved
// by concurrently active peers survive in the bag. The caller owns this
// thread between operations, so its own row reserves nothing the thread
// still uses: clearing it lets the pass free what the last delete retired.
func (g *guard) FullPass() {
	for i := range g.row {
		g.row[i].Store(0)
	}
	g.Adopt(0)
	if len(g.Bag) == 0 {
		return
	}
	g.signalAll()
	g.reclaimFreeable(len(g.Bag))
	g.cleanUp()
}

// reclaimFreeable frees every record in Bag[:upto] that no thread has
// reserved (Algorithm 1 lines 21–25). Reserved records stay in the bag —
// there are at most N·R of them, which is what bounds the bag. The
// reservation snapshot is a flat sorted scratch (one pass, one sort,
// binary-search membership), so a reclaim burst costs zero heap allocations.
func (g *guard) reclaimFreeable(upto int) {
	g.Scan(upto, g.collect, g.scan.Contains)
}

func (g *guard) collect() {
	g.scan.CollectRows(g.s.reservations, g.s.cfg.Slots, g.s.ActiveMask)
}
