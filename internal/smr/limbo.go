package smr

import (
	"sync"

	"nbr/internal/hist"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
)

// This file is the limbo kernel: everything about holding retired records
// until they may be freed that does not depend on *why* they may be freed.
// A scheme is its announcement layout, its trigger, its keep test and its
// bound formula (DESIGN.md §16); the retire path (Retire, RetireBatch and
// RetireSegment), the weighted bag, the counters and their Stats fold, the
// handoff histogram, the garbage-age sample, segment accounting, chunking,
// orphan hand-off and adoption, the recovery body, the scan bracket and the
// sweep exist here once. The kernel never asks which scheme it serves:
// differences enter through Spec (burst, attach, round collection and signal
// group), the Policy hooks, and the collect/keep functions a scheme hands to
// Scan.

// Spec is what a scheme declares to the kernel at construction.
type Spec struct {
	// Name is the scheme's short name as used in the paper's figures.
	Name    string
	Arena   mem.Arena
	Threads int
	// Burst is the scheme's reclamation burst in records — the bag weight at
	// which a threshold-triggered scheme passes, NBR's HiWatermark — or 0
	// when it has none. ReclaimBurst reports it, a guard's FreeBatch scratch
	// is built at that size on its first sweep, and Chunk cuts at it.
	Burst int
	// Attach readies slot tid's announcement state for a new leaseholder
	// (the registry's acquire hook).
	Attach func(tid int)
	// Collect is one pass over the scheme's announcement state under the
	// active mask that frees nothing: the body of a forced round. The kernel
	// serializes calls, so it may use scheme-level scratch.
	Collect func()
	// Signals is the scheme's neutralization signal group, nil for every
	// scheme but the NBR family. The kernel keeps it on the membership mask
	// and the recorder, folds its counters into Stats, and posts RevokeSlot
	// through it.
	Signals *sigsim.Group
}

// Policy is the guard-side half of what a scheme supplies: the hooks the
// kernel's retire, recovery and segment paths call back through, one
// indirect call per pass, per chunk or per segment, never per retired
// record. Limbo provides Before and Landed defaults, so a guard embedding it
// overrides only what it needs.
type Policy interface {
	// FullPass adopts every orphan and runs the scheme's full-strength
	// reclamation pass over the bag (signal+scan, hazard scan, epoch
	// advance+sweep), on behalf of a guard the caller owns.
	FullPass()
	// Before sees the next records of a retire handoff before they land in
	// the bag — ps, w record-weight in all — runs the scheme's pre-append
	// trigger and per-entry stamps, and returns how many of ps land next.
	// A RetireBatch chunk is ps[:take] with w = len(ps); a segment is the
	// one handle ps[0] at its full weight w, and lands whole whatever the
	// hook returns.
	Before(ps []mem.Ptr, w int) int
	// Landed runs once w record-weight is bagged: the scheme's post-append
	// trigger.
	Landed(w int)
}

// Kernel is the scheme-level half of the limbo kernel, embedded by every
// scheme. It implements Scheme except Guard, GarbageBound and ResetSlot.
type Kernel struct {
	spec Spec
	// Arena is the arena retired records are freed to.
	Arena mem.Arena
	// Reg is the bound registry, nil in fixed-N mode.
	Reg *Registry
	// ActiveMask is the membership mask scans and signals iterate: full in
	// fixed-N mode, the registry's after AttachRegistry.
	ActiveMask *ActiveSet
	// Rec is the flight recorder (nil or disabled: one branch per site).
	Rec *obs.Recorder

	// segs is the arena's segment interface (nil: no segment can reach this
	// scheme) and maxW the largest segment weight retired so far. maxW gates
	// everything: until the first RetireSegment lands every entry weighs 1
	// without a directory probe and the bound formulas keep their
	// pre-segment form.
	segs mem.SegmentArena
	maxW Watermark
	// orphanPeak is the high-water mark, in record weight, of the registry's
	// orphan list while this scheme fed it.
	orphanPeak Watermark

	forceMu sync.Mutex
	limbos  []*Limbo
}

// Init readies the kernel in fixed-N mode: all threads permanently active.
// Every guard's Limbo must then be bound with Bind before use.
func (k *Kernel) Init(spec Spec) {
	k.spec = spec
	k.Arena = spec.Arena
	k.segs = mem.AsSegmentArena(spec.Arena)
	k.ActiveMask = sigsim.FullActiveSet(spec.Threads)
	k.limbos = make([]*Limbo, spec.Threads)
	if g := spec.Signals; g != nil {
		g.SetActive(k.ActiveMask)
	}
}

// Bind wires guard tid's Limbo into the kernel; p is the guard itself.
func (k *Kernel) Bind(tid int, l *Limbo, p Policy) {
	l.k, l.tid, l.policy = k, tid, p
	k.limbos[tid] = l
}

// Name implements Scheme.
func (k *Kernel) Name() string { return k.spec.Name }

// ReclaimBurst implements Scheme.
func (k *Kernel) ReclaimBurst() int { return k.spec.Burst }

// Stats implements Scheme: the one fold over the per-guard counter blocks
// and the signal group's counters.
func (k *Kernel) Stats() Stats {
	var st Stats
	for _, l := range k.limbos {
		st.Retired += l.Retired.Load()
		st.Freed += l.Freed.Load()
		st.Scans += l.Scans.Load()
		st.Advances += l.Advances.Load()
		st.Segments += l.Segments.Load()
		st.SegRecords += l.SegRecords.Load()
	}
	if g := k.spec.Signals; g != nil {
		gs := g.Stats()
		st.Signals, st.Neutralized, st.Ignored = gs.Sent, gs.Neutralized, gs.Ignored
	}
	return st
}

// Handoffs implements Scheme: the per-guard handoff histograms, merged.
func (k *Kernel) Handoffs() hist.Histogram {
	var h hist.Histogram
	for _, l := range k.limbos {
		h.Merge(&l.batches)
	}
	return h
}

// AttachRegistry implements Scheme: the scheme and its signal group adopt
// the registry's active mask, and the scheme registers its acquire hook.
func (k *Kernel) AttachRegistry(r *Registry) {
	if r.MaxThreads() != len(k.limbos) {
		panic(k.spec.Name + ": registry capacity does not match scheme thread count")
	}
	k.Reg, k.ActiveMask = r, r.Active()
	if g := k.spec.Signals; g != nil {
		g.SetActive(k.ActiveMask)
	}
	r.OnAcquire(k.spec.Attach)
}

// SetRecorder implements Scheme: the retire path's garbage-age samples and
// the signal group's events join rec's timeline.
func (k *Kernel) SetRecorder(rec *obs.Recorder) {
	k.Rec = rec
	if g := k.spec.Signals; g != nil {
		g.SetRecorder(rec)
	}
}

// RevokeSlot implements Scheme: a sticky revocation through the signal
// group — the channel neutralization uses, aimed at one slot.
func (k *Kernel) RevokeSlot(tid int) {
	if g := k.spec.Signals; g != nil {
		g.Revoke(tid)
	}
}

// ForceRound implements Scheme: Spec.Collect as one completed scan round,
// bracketed so it counts toward quarantine aging. The round counter
// certifies "a collection that began after a release has completed", nothing
// about sweeping. Only the bound registry calls it.
func (k *Kernel) ForceRound() {
	k.forceMu.Lock()
	defer k.forceMu.Unlock()
	k.Reg.BeginScan()
	k.spec.Collect()
	k.Reg.EndScan()
}

// Drain is one full-strength pass on behalf of tid, which the caller must
// own: Recover's first step, and the Drainer the benchmark's traced twin
// asserts. Records peers still protect survive in the bag.
func (k *Kernel) Drain(tid int) { k.limbos[tid].policy.FullPass() }

// quiesceRounds caps Quiesce so a drain under live traffic ends. At
// quiescence the deepest drain measured took 4 rounds (qsbr, 6 threads).
const quiesceRounds = 8

// Quiesce implements Scheme: rounds of one Drain per listed tid until
// Retired == Freed, the listed bags are empty, a round after the first frees
// and advances nothing, or quiesceRounds rounds ran. The first round never
// stops on no progress: its passes clear the listed guards' own
// announcements, which unpin records only for later passes. Progress is the
// listed guards' own Freed and Advances, not Stats, which traffic on other
// slots moves.
func (k *Kernel) Quiesce(tids ...int) bool {
	settled := func() bool { st := k.Stats(); return st.Retired == st.Freed }
	progress := func() (n uint64) {
		for _, tid := range tids {
			n += k.limbos[tid].Freed.Load() + k.limbos[tid].Advances.Load()
		}
		return n
	}
	for round := 0; round < quiesceRounds && !settled(); round++ {
		before, empty := progress(), true
		for _, tid := range tids {
			k.Drain(tid)
			empty = empty && len(k.limbos[tid].Bag) == 0
		}
		if empty || (round > 0 && progress() == before) {
			break
		}
	}
	return settled()
}

// Recover implements Scheme, run by whichever goroutine recovers the slot
// (owner or reaper) after it left the active mask: a Drain; then the slot's
// allocator caches go to the shared shards — the records the Drain freed
// among them — so nothing recyclable is stranded while the slot sits
// unleased; then whatever the Drain could not free goes to the registry's
// orphan list, bag slice and all, for the next reclaimer to adopt. Header
// stamps (eras, epochs) travel with the records.
func (k *Kernel) Recover(tid int) {
	k.Drain(tid)
	k.Arena.DrainCache(tid)
	l := k.limbos[tid]
	if len(l.Bag) == 0 {
		return
	}
	k.Reg.AddOrphans(l.Bag)
	// Raised at every add; between adds the list only shrinks, so the
	// watermark stays a sound weight ceiling.
	k.orphanPeak.Raise(uint64(k.Reg.OrphanCount() * k.SegW()))
	l.Bag, l.BagW = l.Bag[:0], 0
}

// SegW is the per-entry weight ceiling of the bound formulas: every bag
// entry or orphan a peer can pin is at worst one segment handle standing for
// the largest run retired so far. 1 until the first RetireSegment lands and
// monotone afterwards, as GarbageBound's contract requires.
func (k *Kernel) SegW() int {
	if w := int(k.maxW.Load()); w > 1 {
		return w
	}
	return 1
}

// Pinned is the measured pinned set in record weight: every guard's largest
// sweep-survivor weight plus the orphaned-survivor peak. Monotone.
func (k *Kernel) Pinned() int {
	n := k.orphanPeak.Load()
	for _, l := range k.limbos {
		n += l.pinnedPeak.Load()
	}
	return int(n)
}

// weigh sums the record weight of ps: 1 each until a segment was retired.
func (k *Kernel) weigh(ps []mem.Ptr) int {
	if k.maxW.Load() == 0 {
		return len(ps)
	}
	w := 0
	for _, p := range ps {
		w += mem.SegWeight(k.segs, p)
	}
	return w
}

// Limbo is the guard-level half of the kernel, embedded by every guard: the
// weighted bag, the counter block, and the smr.Guard methods a scheme does
// not override. Owner-only except the counters and batches, which Stats and
// Handoffs read concurrently.
type Limbo struct {
	k      *Kernel
	tid    int
	policy Policy

	// Bag holds the retired-but-unfreed handles in retire order; BagW is its
	// record weight: len(Bag) until a segment handle lands, after which each
	// handle counts its member run. Triggers compare against BagW so bounds
	// count every member record behind one entry.
	Bag  []mem.Ptr
	BagW int
	// batch is the sweep's FreeBatch scratch, nil until the first Sweep
	// builds it at Burst capacity, so a slot that never sweeps never pays
	// for it; one is Retire's one-record handoff and RetireSegment's handle,
	// passed to Before without allocating.
	batch []mem.Ptr
	one   [1]mem.Ptr

	// The counter block Stats folds. Schemes bump only Advances (epoch or
	// era advances); the kernel maintains the rest.
	Retired    Counter
	Freed      Counter
	Scans      Counter
	Advances   Counter
	Segments   Counter // segment handles bagged (RetireSegment calls)
	SegRecords Counter // member records those handles stood for
	// batches counts retire handoffs by size; Kernel.Handoffs merges them.
	batches hist.Histogram
	// pinnedPeak is the largest survivor weight any sweep of this bag kept.
	pinnedPeak Watermark
}

// Tid implements Guard.
func (l *Limbo) Tid() int { return l.tid }

// The Guard methods below are the no-op defaults; a scheme's guard defines
// only the barriers its announcement layout needs.
func (l *Limbo) BeginOp()              {}
func (l *Limbo) EndOp()                {}
func (l *Limbo) BeginRead()            {}
func (l *Limbo) Reserve(int, mem.Ptr)  {}
func (l *Limbo) EndRead()              {}
func (l *Limbo) Protect(int, mem.Ptr)  {}
func (l *Limbo) NeedsValidation() bool { return false }
func (l *Limbo) OnAlloc(mem.Ptr)       {}

// OnStale implements Guard for every scheme without a signal to explain a
// freed slot: a proven use-after-free.
func (l *Limbo) OnStale(p mem.Ptr) {
	panic(l.k.spec.Name + ": use-after-free detected: " + p.String())
}

// Before and Landed are Policy's defaults: the whole handoff lands at
// once, and nothing triggers after it.
func (l *Limbo) Before(ps []mem.Ptr, _ int) int { return len(ps) }
func (l *Limbo) Landed(int)                     {}

// Retire implements Guard for every scheme: a RetireBatch of one record,
// through a one-element array the Limbo holds so it does not allocate.
func (l *Limbo) Retire(p mem.Ptr) {
	l.one[0] = p
	l.RetireBatch(l.one[:])
}

// RetireBatch implements Guard for every scheme: one handoff, sampled once
// for the garbage-age histogram, landed in the chunks the scheme's Before
// sizes. A threshold-triggered scheme cuts each chunk where it fills the bag
// to its trigger (Chunk), so the triggers fire at the bag weights a
// per-record Retire loop would hit and one oversized splice never outruns
// them; a scheme whose garbage is unbounded takes the whole batch with one
// stamp or epoch check. Retired is counted per chunk, not per handoff: a
// concurrent Stats sampler must never see a whole splice as garbage before
// the split has had a chance to reclaim between chunks.
func (l *Limbo) RetireBatch(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	l.batches.Record(int64(len(ps)))
	if rec := l.k.Rec; rec.Enabled() { // inlined: one branch while disabled
		rec.SampleRetire(uint64(ps[0].Unmarked()))
	}
	for len(ps) > 0 {
		take := l.policy.Before(ps, len(ps))
		for _, p := range ps[:take] {
			l.Bag = append(l.Bag, p.Unmarked())
		}
		l.BagW += take
		l.Retired.Add(uint64(take))
		ps = ps[take:]
		l.policy.Landed(take)
	}
}

// Forget empties the bag without freeing: the leaky baseline's whole pass.
func (l *Limbo) Forget() { l.Bag, l.BagW = l.Bag[:0], 0 }

// Full reports whether the bag has reached the scheme's burst weight.
func (l *Limbo) Full() bool { return l.BagW >= l.k.spec.Burst }

// Chunk sizes the next chunk of a split RetireBatch for a threshold-triggered
// scheme: the records that fill the bag exactly to the burst weight — so the
// post-append trigger fires at the bag weights a per-record Retire loop would
// hit — degrading to single records when the bag is already at or past it
// (the last pass freed nothing), exactly as the loop would.
func (l *Limbo) Chunk(avail int) int {
	take := l.k.spec.Burst - l.BagW
	if take < 1 {
		take = 1
	}
	if take > avail {
		take = avail
	}
	return take
}

// RetireSegment implements Guard for every scheme: the handle lands in the
// bag whole, as a single entry standing for its whole member run — one
// stamp, one append and one scan participation for K records — while
// triggers and bounds run on record weight. A segment is never split: a
// reader protects the run by naming the handle (an NBR reservation, a
// hazard pointer) or by an interval covering its eras, and one handle
// freed as one unit keeps both true. An oversized run is a one-append
// overshoot past the scheme's trigger, which every finite GarbageBound
// charges as one SegW per thread. A handle that is not a live segment
// degrades to Retire.
func (l *Limbo) RetireSegment(p mem.Ptr) {
	k := l.k
	w := mem.SegWeight(k.segs, p)
	if w <= 1 {
		l.Retire(p)
		return
	}
	l.batches.Record(int64(w))
	l.one[0] = p.Unmarked()
	if k.Rec.Enabled() {
		k.Rec.Rec(l.tid, obs.EvSegRetire, uint64(w))
		k.Rec.SampleRetire(uint64(l.one[0]))
	}
	l.policy.Before(l.one[:], w)
	// Noted before bagging: a concurrent GarbageBound reader must never see
	// segment garbage under a pre-segment (or lighter) bound.
	k.maxW.Raise(uint64(w))
	l.Bag = append(l.Bag, l.one[0])
	l.BagW += w
	l.Retired.Add(uint64(w))
	l.Segments.Inc()
	l.SegRecords.Add(uint64(w))
	l.policy.Landed(w)
}

// Adopt pulls up to max (all when max <= 0) orphaned records into the bag,
// so a pass this guard is about to run frees departed threads' garbage too.
// They were counted as retired by their original thread; only freeing is
// accounted here.
func (l *Limbo) Adopt(max int) {
	if r := l.k.Reg; r != nil {
		n := len(l.Bag)
		l.Bag = r.AdoptOrphans(l.Bag, max) // gated on one atomic load when empty
		l.BagW += l.k.weigh(l.Bag[n:])
	}
}

// Scan is one bracketed reclamation pass: counted, inside the registry's
// BeginScan/EndScan so it completes a round toward quarantine aging.
// collect snapshots the scheme's announcement state; the sweep then frees
// every entry of Bag[:upto] that keep rejects against that snapshot.
func (l *Limbo) Scan(upto int, collect func(), keep func(mem.Ptr) bool) {
	l.Scans.Inc()
	if r := l.k.Reg; r != nil {
		r.BeginScan()
		defer r.EndScan()
	}
	collect()
	l.Sweep(upto, keep)
}

// Sweep partitions Bag[:upto] into survivors (keep reports true) and a batch
// freed through one FreeBatch call — one free-list interaction per pass, no
// heap allocation after the guard's first sweep builds the scratch —
// compacting the bag in place and re-weighing it.
func (l *Limbo) Sweep(upto int, keep func(mem.Ptr) bool) {
	if l.batch == nil {
		l.batch = make([]mem.Ptr, 0, l.k.spec.Burst)
	}
	weighted := l.k.maxW.Load() != 0
	kept, batch := l.Bag[:0], l.batch[:0]
	keptW, freedW := 0, 0
	for _, p := range l.Bag[:upto] {
		w := 1
		if weighted {
			// Read before FreeBatch: freeing a segment handle removes it
			// from the arena's directory.
			w = mem.SegWeight(l.k.segs, p)
		}
		if keep(p) {
			kept = append(kept, p)
			keptW += w
		} else {
			batch = append(batch, p)
			freedW += w
		}
	}
	keptW += l.k.weigh(l.Bag[upto:])
	kept = append(kept, l.Bag[upto:]...)
	// A fruitless pass must not touch the arena at all: the free path is the
	// allocator's contended side.
	if len(batch) > 0 {
		l.k.Arena.FreeBatch(l.tid, batch)
	}
	l.Bag, l.BagW, l.batch = kept, keptW, batch[:0]
	l.Freed.Add(uint64(freedW))
	// Raised after the frees so a concurrent sampler can never read the
	// lowered garbage before the raised bound.
	l.pinnedPeak.Raise(uint64(keptW))
}
