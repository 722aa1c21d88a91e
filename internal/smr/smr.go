// Package smr defines the interface between concurrent data structures and
// safe-memory-reclamation schemes, mirroring the role of setbench's
// record_manager in the paper's evaluation.
//
// A data-structure operation runs inside Execute, which brackets it with
// BeginOp/EndOp and re-runs the body whenever the NBR schemes neutralize the
// thread (the siglongjmp analogue). Within the body the data structure:
//
//   - calls BeginRead at the start of each read phase (NBR's sigsetjmp /
//     beginΦread; a no-op for every other scheme);
//   - calls Protect(slot, p) before the first access to each newly obtained
//     record — this is the universal access barrier: hazard-pointer and era
//     schemes announce p in the slot, NBR polls for pending neutralization
//     signals, epoch schemes do nothing. If NeedsValidation reports true the
//     caller must re-read the link it obtained p from and restart the
//     operation on mismatch (the HP/IBR reachability validation). A
//     traversal makes both calls through a Barrier resolved once per
//     operation (BarrierOf), which skips Protect while nothing is pending
//     for guards that allow it (barrier.go);
//   - reads record fields by copying them and then re-validating the handle
//     generation, reporting a stale handle via OnStale (which neutralizes
//     under NBR and panics — a detected use-after-free — everywhere else;
//     Barrier.Stale is that tail, written once);
//   - calls Reserve then EndRead before its write phase (endΦread with the
//     reservation set; no-ops outside NBR);
//   - calls Retire for every unlinked record, or RetireBatch when one
//     operation unlinks a whole subtree or chain.
//
// Allocation is only permitted in write phases (never between BeginRead and
// EndRead), matching the paper's Φread rules and guaranteeing neutralization
// cannot leak a private record.
//
// These rules are machine-checked: cmd/nbrvet (blocking in CI) verifies
// bracket ordering, read-phase restartability, lease affinity, and guarded
// arena access across the repo — see DESIGN.md §13.
package smr

import (
	"nbr/internal/hist"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
)

// Guard is a per-thread handle onto an SMR scheme. A Guard must only be used
// by the thread (goroutine) it was issued to. The bracket discipline below
// (BeginRead/Reserve/EndRead ordering, restartable read phases, write-phase
// retires) is enforced statically by cmd/nbrvet (DESIGN.md §13).
type Guard interface {
	// Tid returns the dense thread id this guard was issued for.
	Tid() int

	// BeginOp and EndOp bracket one data-structure operation.
	BeginOp()
	EndOp()

	// BeginRead marks the start of a read phase (NBR: checkpoint + become
	// restartable + clear reservations).
	BeginRead()
	// Reserve announces that the upcoming write phase will access p
	// (NBR: reservation array slot i). Must precede EndRead.
	Reserve(i int, p mem.Ptr)
	// EndRead ends the read phase (NBR: publish reservations and become
	// non-restartable; may neutralize instead if a signal raced the
	// transition).
	EndRead()

	// Protect is the access barrier invoked before the first use of each
	// newly obtained record handle. Slot identity matters only to
	// hazard-pointer-style schemes.
	Protect(slot int, p mem.Ptr)
	// NeedsValidation reports whether the scheme requires link re-read
	// validation after Protect (true for HP, IBR, HE).
	NeedsValidation() bool

	// Retire hands an unlinked record to the scheme for eventual freeing.
	Retire(p mem.Ptr)
	// RetireBatch hands a whole unlinked subtree or chain to the scheme at
	// once. It is observationally equivalent to calling Retire on each
	// element in order, but the scheme performs its per-retire bookkeeping —
	// watermark/threshold check, era stamp, reclamation scan — once per
	// batch instead of once per record, so a subtree unlink costs O(1)
	// amortized shared interactions regardless of its size. The slice is not
	// retained.
	RetireBatch(ps []mem.Ptr)
	// RetireSegment hands one segment handle (mem.SegmentArena) standing for
	// a whole contiguous run of K records to the scheme. The scheme stamps,
	// bags and scans the handle once — its garbage accounting counts all K
	// member records — but the per-record fan-out happens inside the arena
	// at free time, so the scheme-side cost of a bulk retirement is O(1)
	// however large the run. Every scheme bags the handle whole at full
	// weight and frees it as one unit: readers of hp and nbr protect the run
	// by announcing or reserving that handle, so no piece of it may ever
	// stand under another name. A run larger than the scheme's burst is one
	// append past its trigger, an overshoot every declared bound charges
	// (SegW per thread). Calling it with a non-segment handle degrades to
	// Retire.
	RetireSegment(p mem.Ptr)
	// OnAlloc is invoked right after allocating a record (era schemes stamp
	// the birth era).
	OnAlloc(p mem.Ptr)
	// OnStale is invoked when a copy-validate read found a freed slot. NBR
	// re-polls and neutralizes (the free proves a signal is pending); other
	// schemes treat it as a proven use-after-free and panic.
	OnStale(p mem.Ptr)
}

// Unbounded is the GarbageBound sentinel returned by schemes whose garbage
// can grow without limit (epoch-based schemes under a stalled thread, and the
// leaky baseline by construction).
const Unbounded = -1

// Scheme is a reclamation algorithm instance bound to one data structure's
// arena: all a Registry needs of it, and Quiesce, the one drain every driver
// runs. Every scheme embeds the limbo Kernel, which implements everything
// here but Guard, GarbageBound and ResetSlot.
type Scheme interface {
	// Name returns the scheme's short name as used in the paper's figures.
	Name() string
	// Guard returns the (cached) guard for thread tid.
	Guard(tid int) Guard
	// Stats returns aggregate reclamation counters.
	Stats() Stats
	// Handoffs returns the retire handoff sizes merged across guards: a
	// Retire call is one handoff of size 1, a RetireBatch or RetireSegment
	// call one of its record count. Retired over the handoff count is the
	// amortization the RetireBatch seam achieves. It stays out of Stats, so
	// the counter fold a garbage sampler runs reads no histogram.
	Handoffs() hist.Histogram
	// GarbageBound returns the scheme's declared worst-case number of
	// retired-but-unfreed records across all threads, or Unbounded. The
	// bound is a live contract, not documentation: the dstest and bench
	// harnesses sample Stats().Garbage() against it during every stress
	// run, so a scheme that cannot keep its promise fails loudly. The
	// value is monotone non-decreasing over a scheme's lifetime (schemes
	// with dynamic pinned-set accounting only ever raise it), so a sampler
	// may compare a garbage reading against a bound read later.
	GarbageBound() int
	// ReclaimBurst returns the scheme's declared reclamation burst: the
	// largest number of records one thread hands the allocator in a single
	// free batch (the limbo-bag HiWatermark for the NBR family, the scan
	// threshold for the threshold-triggered schemes, 0 when the scheme
	// never frees or has no characteristic burst). The allocator sizes
	// per-thread caches from it so a burst amortizes to one shared-shard
	// interaction (DESIGN.md §6).
	ReclaimBurst() int

	// Quiesce drains on behalf of threads tids, which the caller must own
	// between operations (leases or the fixed-N convention): rounds of one
	// full-strength pass per tid — adopt any orphaned records, then
	// signal+scan, hazard scan or epoch advance+sweep — until every retired
	// record is freed or a round after the first frees and advances
	// nothing. It reports Retired == Freed. At quiescence a drain over every
	// thread holding garbage ends true within a few rounds (epoch-based
	// schemes walk their grace periods forward one round at a time); records
	// peers still protect survive, and under concurrent traffic it is a
	// capped best effort.
	Quiesce(tids ...int) bool
	// AttachRegistry adopts the registry's active mask for the scheme's
	// scans and signals, registers its acquire hook, and starts adopting
	// the registry's orphan list. Registry.Bind calls it exactly once,
	// after construction and before any guard is used.
	AttachRegistry(r *Registry)
	// ForceRound completes one scan round on demand without owning a
	// thread slot: one bracketed (BeginScan/EndScan) collection over the
	// announcement state under the active mask, freeing nothing. It ages
	// the quarantine exactly as an organic round from a peer would, and is
	// safe for concurrent use: any acquirer may force a round.
	ForceRound()
	// Recover is the recovery body for slot tid, which has left the active
	// mask (recovery.go): drain, hand the slot's allocator caches to the
	// shared shards, orphan what peers still protect.
	Recover(tid int)
	// ResetSlot clears tid's announcements and guard-local state for the
	// next occupant.
	ResetSlot(tid int)
	// RevokeSlot posts a sticky revocation to a zombie still running on
	// tid, killing it at its next delivery point (sigsim.Revoked), through
	// the scheme's signal group; a no-op for schemes without one, which
	// rely on the lease's revoked flag at the public operation layer.
	RevokeSlot(tid int)
	// SetRecorder attaches a flight recorder to the scheme and its signal
	// group. Construction-time wiring only: Registry.Bind calls it when the
	// registry has a recorder; fixed-N harnesses call it directly.
	SetRecorder(rec *obs.Recorder)
}

// Drainer is the one-method view of Kernel.Drain that the benchmark's traced
// twin asserts; every Scheme is one.
type Drainer interface {
	Drain(tid int)
}

// Stats aggregates reclamation activity across all threads of a scheme.
type Stats struct {
	Retired     uint64 // records handed to Retire/RetireBatch
	Freed       uint64 // records returned to the allocator
	Signals     uint64 // neutralization signals sent (NBR family)
	Neutralized uint64 // read-phase restarts caused by signals
	Ignored     uint64 // signals delivered to non-restartable threads
	Scans       uint64 // reservation/hazard/era scans performed
	Advances    uint64 // epoch or era advances
	Segments    uint64 // segment handles retired (RetireSegment calls)
	SegRecords  uint64 // member records those segments stood for
}

// Stamps returns the number of scheme-side per-retirement bookkeeping events
// (era stamps, bag appends, watermark checks): one per individually retired
// record plus one per segment handle, however many records the segment stood
// for. Stamps/Retired is the amortization the segment seam buys — 1.0 for a
// pure per-record retire stream, collapsing toward Segments/SegRecords when
// bulk retirements ride segments.
func (s Stats) Stamps() uint64 {
	return s.Retired - s.SegRecords + s.Segments
}

// StampsPerRecord returns Stamps normalized by retired records (0 when
// nothing was retired). Host-independent: a pure counter ratio.
func (s Stats) StampsPerRecord() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Stamps()) / float64(s.Retired)
}

// ScansPerRecord returns reclamation scans per retired record (0 when
// nothing was retired).
func (s Stats) ScansPerRecord() float64 {
	if s.Retired == 0 {
		return 0
	}
	return float64(s.Scans) / float64(s.Retired)
}

// Garbage returns the number of retired-but-unfreed records. A snapshot
// taken while threads are mid-retire can transiently read Freed ahead of
// Retired (per-guard counters are summed without a barrier, and a record's
// free can land between the two loads), so concurrent samplers get a clamped
// 0 rather than a wrapped uint64. At quiescence the inversion cannot happen
// honestly: callers there must treat Invalid as a double-free accounting bug
// instead of reading Garbage's masking zero — dstest does.
func (s Stats) Garbage() uint64 {
	if s.Freed > s.Retired {
		return 0
	}
	return s.Retired - s.Freed
}

// Invalid reports the Freed > Retired underflow that Garbage clamps away.
// True at a quiescent point (no thread inside Retire/RetireBatch or a scan)
// means the scheme freed a record it never accounted as retired — a
// double-free-grade bug, never a benign state.
func (s Stats) Invalid() bool {
	return s.Freed > s.Retired
}

// Execute runs one data-structure operation body under g, restarting it when
// the thread is neutralized. Restarting the whole body is equivalent to the
// paper's siglongjmp to the last sigsetjmp because every read phase (re)starts
// from a root; completed auxiliary write phases are simply re-observed, as in
// the paper's Harris-list integration (§5.2).
func Execute[R any](g Guard, body func() R) R {
	g.BeginOp()
	defer g.EndOp()
	for {
		if r, ok := attempt(body); ok {
			return r
		}
	}
}

func attempt[R any](body func() R) (r R, ok bool) {
	defer func() {
		if e := recover(); e != nil {
			if _, is := e.(sigsim.Neutralized); is {
				ok = false
				return
			}
			panic(e)
		}
	}()
	return body(), true
}
