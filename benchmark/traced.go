package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"nbr"
	"nbr/internal/core"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/ds/lazylist"
	"nbr/internal/mem"
	"nbr/internal/smr"
	"nbr/internal/smr/hp"
)

// This file is the traced pass. The public API offers no seam between its
// layers, so the layer ledger is measured on a twin assembled from the
// layers' own constructors exactly the way nbr.Runtime assembles them — one
// mem.Hub over one pool per structure, one scheme at the structures'
// declared Requirements(), one smr.Registry with the same acquire/release
// hooks — with two interposers of the benchmark's own: every smr.Guard the
// structures see is a *tracedGuard, and the mem.Arena the scheme frees into
// is a *tracedArena. All spans are recorded here, around calls into the
// layers; nothing inside the program is instrumented.
//
// Span tree of one structure operation:
//
//	op      BeginOp … EndOp (smr.Execute brackets every Set call with them)
//	└ guard one span per timed Guard call inside the op
//	  └ arena one span per Free/FreeBatch the guard call caused
//
// Self time is a span minus its children, so per sampled op
// ds + scheme + mem == op exactly. Only every 16th op is sampled (all of its
// bracket calls timed); Retire* and arena calls are timed on every op
// because reclamation is rare and bursty; Protect is counted, never timed —
// a list op makes ~5 000 of them. Protect's cost therefore lands in the ds
// self time, which matters for hp, whose Protect is a store and a fence.

// opSampleMask selects the sampled ops: every 16th per thread slot.
const opSampleMask = 15

// spanLogCap bounds the in-memory span log per thread slot; aggregates keep
// accumulating after the log is full.
const spanLogCap = 1 << 15

type spanKind uint8

const (
	spanOp spanKind = iota
	spanGuard
	spanArena
)

func (k spanKind) String() string { return [...]string{"op", "guard", "arena"}[k] }

// span is one recorded interval. Spans of one operation share (tid, op);
// parent indexes the same slot's log (-1 for none).
type span struct {
	kind   spanKind
	name   string
	op     uint64
	parent int32
	start  int64
	dur    int64
	n      int32 // arena: records freed
}

// slotTrace is the tracer state of one thread slot. A slot has one owner at
// a time (the lease holder; the registry's mutex orders hand-offs), so
// nothing here is atomic.
type slotTrace struct {
	tr    *tracer
	inner smr.Guard

	// live is 1 while the current op counts (it began inside the measured
	// window), else 0; kept as a number so Protect adds it without a branch.
	live uint64

	ops        uint64 // BeginOp calls
	beginReads uint64
	protects   uint64

	// The open op span (sampled ops only).
	sampled bool
	opStart int64
	opSpan  int32

	// The open guard span (any timed guard call).
	inGuard bool
	gSpan   int32
	gKids   int64 // arena calls under the open guard span
	gKidNs  int64
	gFreed  int64

	// Raw sums over sampled ops; clock-read cost is removed in summary().
	sampledOps    uint64
	sumOp         int64
	sumGuard      int64
	nGuard        int64
	sumArenaInOps int64
	nArenaInOps   int64

	// Every arena call of the window, inside an op or not (release-time
	// quiesce frees outside any op).
	arenaNs    int64
	arenaCalls int64
	freed      int64
	batches    []int32 // records per FreeBatch

	reclaimNs []int64 // Retire* calls that freed ≥1 record

	spans   []span
	dropped uint64

	_ [64]byte
}

// tracer owns the per-slot states. armed is flipped by the coordinator at
// the edges of the measured window, so prefill, warm-up and Drain stay out
// of the ledger.
type tracer struct {
	armed atomic.Bool
	slots []slotTrace
}

func newTracer(n int) *tracer {
	tr := &tracer{slots: make([]slotTrace, n)}
	for i := range tr.slots {
		tr.slots[i].tr = tr
	}
	return tr
}

func (s *slotTrace) log(sp span) int32 {
	if s.spans == nil {
		s.spans = make([]span, 0, spanLogCap)
	}
	if len(s.spans) == cap(s.spans) {
		s.dropped++
		return -1
	}
	s.spans = append(s.spans, sp)
	return int32(len(s.spans) - 1)
}

// openGuard starts a guard span.
func (s *slotTrace) openGuard(name string) int64 {
	s.inGuard, s.gKids, s.gKidNs, s.gFreed = true, 0, 0, 0
	parent := int32(-1)
	if s.sampled {
		parent = s.opSpan
	}
	t0 := now()
	s.gSpan = s.log(span{kind: spanGuard, name: name, op: s.ops, parent: parent, start: t0})
	return t0
}

// closeGuard ends the span openGuard started and returns its duration.
func (s *slotTrace) closeGuard(t0 int64) int64 {
	d := now() - t0
	s.inGuard = false
	if s.gSpan >= 0 {
		s.spans[s.gSpan].dur = d
	}
	if s.sampled {
		s.sumGuard += d
		s.nGuard++
		s.sumArenaInOps += s.gKidNs
		s.nArenaInOps += s.gKids
	}
	return d
}

// tracedGuard is the smr.Guard handed to the structures in the traced pass.
// It forwards every call to the scheme's guard for the same slot. The
// structure's operation body (which nbrvet checks) owns the bracket
// discipline; the wrapper adds only slot-private bookkeeping that the next
// BeginOp resets, so a neutralization unwinding through a forwarded call
// loses at most the one open span, whose time then reads as ds self time.
type tracedGuard struct{ *slotTrace }

func (g tracedGuard) Tid() int              { return g.inner.Tid() }
func (g tracedGuard) NeedsValidation() bool { return g.inner.NeedsValidation() }
func (g tracedGuard) OnAlloc(p mem.Ptr)     { g.inner.OnAlloc(p) }
func (g tracedGuard) OnStale(p mem.Ptr)     { g.inner.OnStale(p) }

func (g tracedGuard) Protect(slot int, p mem.Ptr) {
	g.protects += g.live
	g.inner.Protect(slot, p)
}

func (g tracedGuard) BeginOp() {
	s := g.slotTrace
	s.inGuard, s.sampled, s.live = false, false, 0
	if !s.tr.armed.Load() {
		g.inner.BeginOp()
		return
	}
	s.live = 1
	s.ops++
	if s.ops&opSampleMask != 0 {
		g.inner.BeginOp()
		return
	}
	s.sampled = true
	s.opStart = now()
	s.opSpan = s.log(span{kind: spanOp, name: "op", op: s.ops, parent: -1, start: s.opStart})
	t0 := s.openGuard("BeginOp")
	g.inner.BeginOp()
	s.closeGuard(t0)
}

func (g tracedGuard) EndOp() {
	s := g.slotTrace
	if !s.sampled {
		g.inner.EndOp()
		return
	}
	t0 := s.openGuard("EndOp")
	g.inner.EndOp()
	s.closeGuard(t0)
	d := now() - s.opStart
	if s.opSpan >= 0 {
		s.spans[s.opSpan].dur = d
	}
	s.sampledOps++
	s.sumOp += d
	s.sampled = false
}

func (g tracedGuard) BeginRead() {
	s := g.slotTrace
	s.beginReads += s.live
	if !s.sampled {
		g.inner.BeginRead()
		return
	}
	t0 := s.openGuard("BeginRead")
	g.inner.BeginRead()
	//nbr:allow readphase — runs inside the phase just forwarded open, but writes only slot-private tracer state that the restart's BeginOp/BeginRead overwrite
	s.closeGuard(t0)
}

func (g tracedGuard) Reserve(i int, p mem.Ptr) {
	s := g.slotTrace
	if !s.sampled {
		//nbr:allow bracket — forwarded: the phase is the calling structure operation's, opened through BeginRead above
		g.inner.Reserve(i, p)
		return
	}
	t0 := s.openGuard("Reserve")
	//nbr:allow bracket — forwarded: the phase is the calling structure operation's, opened through BeginRead above
	g.inner.Reserve(i, p)
	s.closeGuard(t0)
}

func (g tracedGuard) EndRead() {
	s := g.slotTrace
	if !s.sampled {
		//nbr:allow bracket — forwarded: closes the calling structure operation's phase, opened through BeginRead above
		g.inner.EndRead()
		return
	}
	t0 := s.openGuard("EndRead")
	//nbr:allow bracket — forwarded: closes the calling structure operation's phase, opened through BeginRead above
	g.inner.EndRead()
	s.closeGuard(t0)
}

// retired closes a Retire* span. A call that reached the arena is a reclaim
// sample; one that did not, outside a sampled op, is dropped from the span
// log again so the log holds whole sampled ops and reclamation bursts, not
// millions of empty retires.
func (s *slotTrace) retired(t0 int64) {
	freed, idx := s.gFreed, s.gSpan
	d := s.closeGuard(t0)
	switch {
	case freed > 0:
		s.reclaimNs = append(s.reclaimNs, d)
	case !s.sampled && idx >= 0 && int(idx) == len(s.spans)-1:
		s.spans = s.spans[:idx]
	}
}

func (g tracedGuard) Retire(p mem.Ptr) {
	if g.live == 0 {
		g.inner.Retire(p)
		return
	}
	t0 := g.openGuard("Retire")
	g.inner.Retire(p)
	g.retired(t0)
}

func (g tracedGuard) RetireBatch(ps []mem.Ptr) {
	if g.live == 0 {
		g.inner.RetireBatch(ps)
		return
	}
	t0 := g.openGuard("RetireBatch")
	g.inner.RetireBatch(ps)
	g.retired(t0)
}

func (g tracedGuard) RetireSegment(p mem.Ptr) {
	if g.live == 0 {
		g.inner.RetireSegment(p)
		return
	}
	t0 := g.openGuard("RetireSegment")
	g.inner.RetireSegment(p)
	g.retired(t0)
}

// tracedArena is the mem.Arena the twin's scheme frees into: the hub, with
// every Free/FreeBatch timed and attributed to the calling slot's open guard
// span. It deliberately hides the hub's SegmentArena side — neither traced
// structure retires segments.
type tracedArena struct {
	inner mem.Arena
	tr    *tracer
}

func (a *tracedArena) Hdr(p mem.Ptr) *mem.Hdr   { return a.inner.Hdr(p) }
func (a *tracedArena) Valid(p mem.Ptr) bool     { return a.inner.Valid(p) }
func (a *tracedArena) SizeCache(tid, burst int) { a.inner.SizeCache(tid, burst) }
func (a *tracedArena) DrainCache(tid int)       { a.inner.DrainCache(tid) }

func (a *tracedArena) Free(tid int, p mem.Ptr) {
	if !a.tr.armed.Load() {
		a.inner.Free(tid, p)
		return
	}
	t0 := now()
	a.inner.Free(tid, p)
	a.tr.slots[tid].freedSpan("Free", t0, 1)
}

func (a *tracedArena) FreeBatch(tid int, ps []mem.Ptr) {
	if !a.tr.armed.Load() {
		a.inner.FreeBatch(tid, ps)
		return
	}
	t0 := now()
	a.inner.FreeBatch(tid, ps)
	s := &a.tr.slots[tid]
	s.batches = append(s.batches, int32(len(ps)))
	s.freedSpan("FreeBatch", t0, len(ps))
}

func (s *slotTrace) freedSpan(name string, t0 int64, n int) {
	d := now() - t0
	s.arenaNs += d
	s.arenaCalls++
	s.freed += int64(n)
	parent := int32(-1)
	if s.inGuard {
		parent = s.gSpan
		s.gKids++
		s.gKidNs += d
		s.gFreed += int64(n)
	}
	s.log(span{kind: spanArena, name: name, op: s.ops, parent: parent, start: t0, dur: d, n: int32(n)})
}

// twinSet is an internal structure as the twin drives and verifies it.
type twinSet interface {
	setAPI[smr.Guard]
	setView
	MemStats() mem.Stats
}

// twin is the internal system of the traced pass. It adapts its parts to
// oracleView, so the traced trials pass the same oracle as the public ones.
type twin struct {
	hub  *mem.Hub
	reg  *smr.Registry
	sch  smr.Scheme
	sets []twinSet
	tr   *tracer
}

func (t *twin) GarbageBound() int      { return t.sch.GarbageBound() }
func (t *twin) StagedFrees() int       { return int(t.hub.Staged()) }
func (t *twin) Stats() nbr.Stats       { return t.sch.Stats() }
func (t *twin) FallbackReuses() uint64 { return t.reg.FallbackReuses() }

// Drain mirrors nbr.Runtime.Drain on the twin's own registry and scheme.
func (t *twin) Drain() error {
	dr, ok := t.sch.(smr.Drainer)
	if !ok {
		return nil
	}
	l, err := t.reg.Acquire()
	if err != nil {
		return err
	}
	defer l.Release()
	for i := 0; i < 64; i++ {
		if st := t.sch.Stats(); st.Retired == st.Freed {
			break
		}
		dr.Drain(l.Tid())
	}
	return nil
}

func (t *twin) memStats() (live int64, globalOps uint64) {
	for _, s := range t.sets {
		st := s.MemStats()
		live += st.LiveBytes
		globalOps += st.GlobalOps
	}
	return
}

// buildTwin assembles the twin the way Runtime.NewSet and
// Runtime.materialize assemble the real thing.
func buildTwin(spec trialSpec) (*sut, error) {
	wl := spec.wl
	// A throwaway public runtime answers "what MaxThreads would these
	// options get" without the benchmark restating the default.
	probe, err := nbr.NewRuntime(wl.opts)
	if err != nil {
		return nil, err
	}
	n := probe.MaxThreads()

	t := &twin{hub: mem.NewHub(n), reg: smr.NewRegistry(n), tr: newTracer(n)}
	var slots, reservations, threshold int
	for _, name := range wl.structures {
		cfg := mem.Config{MaxThreads: n, Tag: t.hub.NextTag()}
		var set twinSet
		var arena mem.Arena
		var s, r, th int
		switch name {
		case "dgt":
			tree := dgtbst.NewWith(cfg)
			req := tree.Requirements()
			set, arena, s, r, th = tree, tree.Arena(), req.Slots, req.Reservations, req.Threshold
		case "lazylist":
			list := lazylist.NewWith(cfg)
			req := list.Requirements()
			set, arena, s, r, th = list, list.Arena(), req.Slots, req.Reservations, req.Threshold
		default:
			return nil, fmt.Errorf("traced pass has no twin for structure %q", name)
		}
		t.hub.Attach(cfg.Tag, arena)
		t.sets = append(t.sets, set)
		slots, reservations, threshold = max(slots, s), max(reservations, r), max(threshold, th)
	}
	arena := &tracedArena{inner: t.hub, tr: t.tr}
	switch spec.scheme {
	case "nbr+":
		t.sch = core.New(arena, n, core.Config{Plus: true, BagSize: wl.opts.BagSize, Slots: reservations})
	case "hp":
		t.sch = hp.New(arena, n, hp.Config{Slots: slots, Threshold: max(64, n*threshold)})
	default:
		return nil, fmt.Errorf("traced pass has no twin for scheme %q", spec.scheme)
	}
	t.reg.Bind(t.sch)
	if burst := t.sch.ReclaimBurst(); burst > 0 {
		t.reg.OnAcquire(func(tid int) { t.hub.SizeCache(tid, burst) })
	}
	t.reg.OnRelease(func(tid int) { t.hub.DrainCache(tid) })
	for tid := range t.tr.slots {
		t.tr.slots[tid].inner = t.sch.Guard(tid)
	}

	s := &sut{oracle: t}
	for _, set := range t.sets {
		s.sets = append(s.sets, set)
	}
	s.gz = gauges{
		garbage:   func() uint64 { return t.sch.Stats().Garbage() },
		liveBytes: func() int64 { live, _ := t.memStats(); return live },
	}
	var globalBase uint64
	s.window = func(open bool) {
		if open {
			_, globalBase = t.memStats()
		}
		t.tr.armed.Store(open)
	}
	s.collect = func(r *trialResult) {
		_, globalOps := t.memStats()
		r.trace = t.tr.summary(globalOps - globalBase)
		r.trace.toReference(r.hostSpeed)
	}
	guard := func(tid int) smr.Guard { return tracedGuard{&t.tr.slots[tid]} }
	if wl.session {
		s.work = func(w *worker, c *control) {
			session := func() error {
				l, err := t.reg.Acquire()
				if err != nil {
					return err
				}
				sessionSteps[smr.Guard](t.sets[0], t.sets[1], guard(l.Tid()), w.key, w.kind, &w.tallies)
				l.Release()
				return nil
			}
			w.key = 1
			if err := session(); err != nil {
				w.fail("first session: %v", err)
			}
			w.ready(c)
			sessionLoop(w, c, wl, false, session)
		}
		return s, nil
	}
	s.work = func(w *worker, c *control) {
		l, err := t.reg.Acquire()
		if err != nil {
			w.fail("Acquire: %v", err)
			w.ready(c)
			return
		}
		defer l.Release()
		g := guard(l.Tid())
		prefillSteady[smr.Guard](w, wl, t.sets[0], g)
		w.ready(c)
		steadyLoop[smr.Guard](w, c, wl, t.sets[0], g)
	}
	return s, nil
}

// traceSummary is the traced pass's ledger: per-op self times with the
// clock-read cost removed, counts, and the reclaim and free-batch samples.
type traceSummary struct {
	ops        uint64
	sampledOps uint64
	opUs       float64 // mean op span
	dsUs       float64 // op − guard spans
	schemeUs   float64 // guard spans − arena spans
	memUs      float64 // arena spans
	protects   float64 // per op
	restarts   float64 // per 1 000 ops
	reclaimNs  []int64 // sorted
	batches    []int32 // sorted
	freeUsPerK float64 // arena time per 1 000 records freed
	globalPerK float64 // pool GlobalOps per 1 000 records freed
	spans      int
	dropped    uint64
	tr         *tracer
}

// summary folds the slots. A timed call [t0 = now(); call; now()-t0] reads
// one clock interval c too long, and its parent sees two; with S sampled
// ops, K guard spans and M arena spans inside them, the raw sums correct to
//
//	ds     = ΣD − Σd − (K+S)·c
//	scheme = Σd − Σa − (K+M)·c
//	mem    = Σa − M·c
//
// which still add up to the corrected op span ΣD − (2K+2M+S)·c.
func (tr *tracer) summary(globalOps uint64) *traceSummary {
	c := clockCost()
	sum := &traceSummary{tr: tr}
	var beginReads, protects uint64
	var sumOp, sumGuard, nGuard, sumArena, nArena, arenaNs, arenaCalls, freed int64
	for i := range tr.slots {
		s := &tr.slots[i]
		sum.ops += s.ops
		sum.sampledOps += s.sampledOps
		beginReads += s.beginReads
		protects += s.protects
		sumOp += s.sumOp
		sumGuard += s.sumGuard
		nGuard += s.nGuard
		sumArena += s.sumArenaInOps
		nArena += s.nArenaInOps
		arenaNs += s.arenaNs
		arenaCalls += s.arenaCalls
		freed += s.freed
		sum.reclaimNs = append(sum.reclaimNs, s.reclaimNs...)
		sum.batches = append(sum.batches, s.batches...)
		sum.spans += len(s.spans)
		sum.dropped += s.dropped
	}
	slices.Sort(sum.reclaimNs)
	slices.Sort(sum.batches)
	if n := float64(sum.sampledOps); n > 0 {
		S, K, M := float64(sum.sampledOps), float64(nGuard), float64(nArena)
		sum.dsUs = (float64(sumOp-sumGuard) - (K+S)*c) / n / 1e3
		sum.schemeUs = (float64(sumGuard-sumArena) - (K+M)*c) / n / 1e3
		sum.memUs = (float64(sumArena) - M*c) / n / 1e3
		sum.opUs = sum.dsUs + sum.schemeUs + sum.memUs
	}
	if n := float64(sum.ops); n > 0 {
		sum.protects = float64(protects) / n
		sum.restarts = (float64(beginReads) - n) / n * 1e3
	}
	if freed > 0 {
		sum.freeUsPerK = (float64(arenaNs) - float64(arenaCalls)*c) / float64(freed)
		sum.globalPerK = float64(globalOps) / float64(freed) * 1e3
	}
	return sum
}

// toReference converts the ledger's times from wall to reference time at the
// trial's mean host speed. (Spans in the log stay raw wall-clock.)
func (sum *traceSummary) toReference(speed float64) {
	sum.opUs *= speed
	sum.dsUs *= speed
	sum.schemeUs *= speed
	sum.memUs *= speed
	sum.freeUsPerK *= speed
	for i, ns := range sum.reclaimNs {
		sum.reclaimNs[i] = int64(float64(ns)*speed + 0.5)
	}
}

// writeSpans dumps the in-memory span log as JSON lines (-trace-out).
func (tr *tracer) writeSpans(w io.Writer, trial string) error {
	enc := json.NewEncoder(w)
	for tid := range tr.slots {
		for i, sp := range tr.slots[tid].spans {
			err := enc.Encode(map[string]any{
				"trial": trial, "tid": tid, "id": i, "parent": sp.parent, "op": sp.op,
				"kind": sp.kind.String(), "name": sp.name,
				"start_ns": sp.start, "dur_ns": sp.dur, "records": sp.n,
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// clockCost is the mean interval between two back-to-back now() reads in
// nanoseconds: the amount every timed call over-reads by. Best of a few
// rounds, so host interference does not inflate the correction.
var clockCost = sync.OnceValue(func() float64 {
	const reads = 1 << 16
	best := math.MaxFloat64
	for round := 0; round < 8; round++ {
		t0 := now()
		for i := 0; i < reads; i++ {
			now()
		}
		best = min(best, float64(now()-t0)/(reads+1))
	}
	return best
})
