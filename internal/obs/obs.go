// Package obs is the reclamation pipeline's flight recorder: a per-thread,
// allocation-free ring of packed 16-byte typed events plus power-of-two
// latency histograms for the durations that define NBR's behavior (admission
// wait, lease hold, read-phase length, signal→restart, garbage residence
// age, reap latency).
//
// The recorder is wired into the hot paths permanently and gated behind a
// single atomic enabled-check: every instrumented site does one predictable
// load+branch when the recorder is disabled (or nil — all methods are
// nil-safe), and nothing else. The rings are built on the first Enable, so a
// recorder that is never switched on holds no ring memory either. When
// enabled, an event write is one atomic fetch-add on the ring cursor plus two
// atomic stores; no path allocates.
//
// Rings are indexed by registry slot (tid), plus two extra rings for
// goroutines that have no slot: the admission ring (AcquireCtx waiters) and
// the system ring (registry scans, the watchdog, revocations). Any goroutine
// may write any ring — the cursor is a fetch-add — but in practice per-tid
// rings are owner-written, so per-thread event order is program order.
//
// Timestamps are nanoseconds on the monotonic clock since the recorder's
// creation, so merged timelines are globally ordered across rings. The
// histograms are internal/hist's, whose atomic writes keep cross-thread
// writers and concurrent snapshot readers race-clean; bucket shape (which
// powers of two hold the mass) is comparable across hosts even when absolute
// latencies are not.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"nbr/internal/hist"
)

// Code is an event type tag. It occupies the top 8 bits of the packed event
// word; the low 56 bits carry a per-code argument (a count, a tid, an age).
type Code uint8

// Event codes, grouped by the pipeline stage that emits them.
const (
	EvNone Code = iota

	// smr.Registry — lease lifecycle and the scan seam.
	EvAcquire     // slot leased                      arg: tid
	EvRelease     // voluntary release                arg: tid
	EvRevoke      // involuntary revocation           arg: tid
	EvReap        // watchdog reaped past deadline    arg: tid
	EvQuarRecycle // quarantined slot recycled        arg: age in scan rounds
	EvForcedRound // admission forced a scan round    arg: completed rounds
	EvOrphanAdopt // orphaned garbage adopted         arg: record count
	EvScanBegin   // reclamation scan begin           arg: completed rounds
	EvScanEnd     // reclamation scan end             arg: completed rounds

	// sigsim — the POSIX-signal simulation.
	EvSigPost    // SignalAll posted to peers        arg: peers signalled
	EvSigDeliver // delivery neutralized receiver    arg: pending posts
	EvSigIgnore  // delivery outside a read phase    arg: pending posts
	EvSigKill    // delivery killed a revoked zombie arg: pending posts
	EvSigRestart // read phase restarted after a neutralization

	// core — the read-phase bracket and the retire seam.
	EvReadBegin // BeginRead: row cleared, restartable set
	EvReadEnd   // EndRead: restartable cleared
	EvSegRetire // segment handle bagged            arg: segment weight

	// mem.Hub — the multi-structure free seam.
	EvHubDispatch // one owner's group of a burst    arg: record count

	// smr.Registry.AcquireCtx — FIFO admission.
	EvAdmitEnqueue // AcquireCtx enqueued            arg: queue depth
	EvAdmitted     // queued waiter got its slot
	EvAdmitCancel  // waiter cancelled by its context

	numCodes
)

var codeNames = [numCodes]string{
	EvNone:         "none",
	EvAcquire:      "acquire",
	EvRelease:      "release",
	EvRevoke:       "revoke",
	EvReap:         "reap",
	EvQuarRecycle:  "quarantine-recycle",
	EvForcedRound:  "forced-round",
	EvOrphanAdopt:  "orphan-adopt",
	EvScanBegin:    "scan-begin",
	EvScanEnd:      "scan-end",
	EvSigPost:      "signal-post",
	EvSigDeliver:   "signal-deliver",
	EvSigIgnore:    "signal-ignore",
	EvSigKill:      "signal-kill",
	EvSigRestart:   "read-restart",
	EvReadBegin:    "read-begin",
	EvReadEnd:      "read-end",
	EvSegRetire:    "segment-retire",
	EvHubDispatch:  "hub-dispatch",
	EvAdmitEnqueue: "admit-enqueue",
	EvAdmitted:     "admitted",
	EvAdmitCancel:  "admit-cancel",
}

func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Histogram identifiers. Each is a duration distribution in nanoseconds.
const (
	HistAdmissionWait = iota // first enqueue → admitted
	HistLeaseHold            // registry Acquire → Release/Revoke
	HistReadPhase            // BeginRead → EndRead
	HistSignalLatency        // SignalAll post → victim's restarted read phase
	HistGarbageAge           // retire → free residence time (sampled)
	HistReapLatency          // lease deadline → revocation delivered
	NumHists
)

var histNames = [NumHists]string{
	"admission_wait",
	"lease_hold",
	"read_phase",
	"signal_latency",
	"garbage_age",
	"reap_latency",
}

// RingSize is the per-ring event capacity. Power of two; overwrite wraps.
const RingSize = 256

const (
	ringMask = RingSize - 1
	argMask  = (uint64(1) << 56) - 1
)

type eslot struct {
	ts   atomic.Int64
	word atomic.Uint64 // Code in the top 8 bits, arg in the low 56
}

type ring struct {
	pos atomic.Uint64
	_   [56]byte // keep hot cursors off each other's cache line
	ev  [RingSize]eslot
}

// gaSamples is the garbage-age sample table size: retire stamps at most this
// many in-flight handles at a time; the free seam matches them back.
const gaSamples = 16

type gaSample struct {
	ptr atomic.Uint64 // raw handle; 0 = free, claimSentinel = mid-claim
	ts  atomic.Int64  // retire timestamp, written before ptr publishes
}

const claimSentinel = ^uint64(0)

// Recorder is the flight recorder. The zero of *Recorder (nil) is a valid,
// permanently disabled recorder: every method is nil-safe, so instrumented
// code holds a plain *Recorder field and never checks for wiring.
type Recorder struct {
	on   atomic.Bool
	base time.Time // monotonic origin for all timestamps
	// rings holds one ring per registry slot, then admission, then system:
	// nrings of them, nil until the first Enable builds them. It is
	// published before on is first set, so a writer that saw on sees them;
	// a reader racing the first Enable sees nil or the whole array.
	rings   atomic.Pointer[[]ring]
	nrings  int
	hists   [NumHists]hist.Histogram
	sampled atomic.Int32 // outstanding garbage-age samples (fast NoteFree gate)
	samples [gaSamples]gaSample
}

// NewRecorder builds a disabled recorder for one ring per registry slot plus
// the admission and system rings. Call Enable to start recording; the rings
// are built then.
func NewRecorder(slots int) *Recorder {
	if slots < 1 {
		slots = 1
	}
	return &Recorder{base: time.Now(), nrings: slots + 2}
}

// Enable turns recording on, building the rings the first time. Safe to call
// concurrently with writers, readers and other Enables: one array wins the
// publication and every Enable turns recording on only after it is visible.
func (r *Recorder) Enable() {
	if r == nil {
		return
	}
	if r.rings.Load() == nil {
		rs := make([]ring, r.nrings)
		r.rings.CompareAndSwap(nil, &rs)
	}
	r.on.Store(true)
}

// Disable turns recording off. In-flight writes may still land.
func (r *Recorder) Disable() {
	if r != nil {
		r.on.Store(false)
	}
}

// Enabled reports whether the recorder is wired and on. This is the single
// check every instrumented hot path pays when the recorder is off.
func (r *Recorder) Enabled() bool { return r != nil && r.on.Load() }

// AdmissionRing is the ring index for slotless admission waiters.
func (r *Recorder) AdmissionRing() int {
	if r == nil {
		return 0
	}
	return r.nrings - 2
}

// SystemRing is the ring index for slotless system work (scans, watchdog).
func (r *Recorder) SystemRing() int {
	if r == nil {
		return 0
	}
	return r.nrings - 1
}

// RingName names ring i for dumps: "t3" for slot rings, "adm", "sys".
func (r *Recorder) RingName(i int) string {
	switch {
	case r == nil || i < 0 || i >= r.nrings:
		return fmt.Sprintf("r%d", i)
	case i == r.nrings-2:
		return "adm"
	case i == r.nrings-1:
		return "sys"
	default:
		return fmt.Sprintf("t%d", i)
	}
}

// Clock returns nanoseconds since the recorder's creation on the monotonic
// clock, or 0 when disabled. 0 is the "not measured" sentinel accepted by
// ObserveSince, so `t0 := rec.Clock()` needs no enabled-check of its own.
func (r *Recorder) Clock() int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	return r.clock()
}

func (r *Recorder) clock() int64 {
	d := time.Since(r.base).Nanoseconds()
	if d <= 0 {
		d = 1
	}
	return d
}

// Rec records event c with argument arg on ring i. Out-of-range rings land
// on the system ring rather than dropping the event.
func (r *Recorder) Rec(i int, c Code, arg uint64) {
	if r == nil || !r.on.Load() {
		return
	}
	rs := r.rings.Load() // non-nil: Enable publishes the rings before on
	if i < 0 || i >= len(*rs) {
		i = len(*rs) - 1
	}
	rg := &(*rs)[i]
	s := &rg.ev[(rg.pos.Add(1)-1)&ringMask]
	s.ts.Store(r.clock())
	s.word.Store(uint64(c)<<56 | arg&argMask)
}

// Sys records on the system ring; Adm on the admission ring.
func (r *Recorder) Sys(c Code, arg uint64) { r.Rec(r.SystemRing(), c, arg) }
func (r *Recorder) Adm(c Code, arg uint64) { r.Rec(r.AdmissionRing(), c, arg) }

// Observe records duration v (nanoseconds) into histogram h.
func (r *Recorder) Observe(h int, v int64) {
	if r == nil || !r.on.Load() {
		return
	}
	r.hists[h].Record(v)
}

// ObserveSince records now−t0 into histogram h. t0 <= 0 means the start was
// never measured (the recorder was off then) and is ignored.
func (r *Recorder) ObserveSince(h int, t0 int64) {
	if t0 <= 0 || r == nil || !r.on.Load() {
		return
	}
	r.hists[h].Record(r.clock() - t0)
}

// Hist exposes histogram h for snapshots and tests; nil for a nil recorder.
func (r *Recorder) Hist(h int) *hist.Histogram {
	if r == nil {
		return nil
	}
	return &r.hists[h]
}

// SampleRetire stamps raw (a retired handle) with the current time so the
// free seam can measure its residence age. At most gaSamples handles are in
// flight; when the table is full the retire is simply not sampled. The claim
// publishes ptr last, so a matching NoteFree always sees the timestamp.
func (r *Recorder) SampleRetire(raw uint64) {
	if r == nil || !r.on.Load() || raw == 0 || raw == claimSentinel {
		return
	}
	if r.sampled.Load() >= gaSamples {
		return
	}
	for i := range r.samples {
		s := &r.samples[i]
		if s.ptr.Load() == 0 && s.ptr.CompareAndSwap(0, claimSentinel) {
			r.sampled.Add(1)
			s.ts.Store(r.clock())
			s.ptr.Store(raw)
			return
		}
	}
}

// Sampling reports whether any garbage-age samples are outstanding; the free
// seam checks this once per batch before paying the per-record NoteFree scan.
func (r *Recorder) Sampling() bool {
	return r != nil && r.on.Load() && r.sampled.Load() > 0
}

// NoteFree matches a freed handle against the sample table and records its
// retire→free residence age.
func (r *Recorder) NoteFree(raw uint64) {
	if r == nil || raw == 0 || r.sampled.Load() == 0 {
		return
	}
	for i := range r.samples {
		s := &r.samples[i]
		if s.ptr.Load() == raw && s.ptr.CompareAndSwap(raw, 0) {
			r.sampled.Add(-1)
			if r.on.Load() {
				r.hists[HistGarbageAge].Record(r.clock() - s.ts.Load())
			}
			return
		}
	}
}

// Event is one decoded flight-recorder entry.
type Event struct {
	TS   int64 // nanoseconds since recorder creation
	Ring int
	Code Code
	Arg  uint64
}

// Events returns up to max merged events, oldest first, globally ordered by
// timestamp. The surviving (not yet overwritten) entries are collected ring
// by ring in cursor order and stable-sorted by timestamp, so equal stamps
// keep ring, then cursor order. Readers race writers benignly: shared rings
// may commit slightly out of cursor order, and an entry mid overwrite may
// pair a fresh timestamp with a stale word; the sort keeps the timeline
// monotone regardless. max <= 0 means all surviving events.
func (r *Recorder) Events(max int) []Event {
	if r == nil {
		return nil
	}
	rs := r.rings.Load()
	if rs == nil { // never enabled: no events
		return nil
	}
	var evs []Event
	for ri := range *rs {
		rg := &(*rs)[ri]
		pos := rg.pos.Load()
		for k := pos - min(pos, RingSize); k < pos; k++ {
			s := &rg.ev[k&ringMask]
			ts := s.ts.Load()
			if ts == 0 {
				continue
			}
			w := s.word.Load()
			evs = append(evs, Event{TS: ts, Ring: ri, Code: Code(w >> 56), Arg: w & argMask})
		}
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TS < evs[b].TS })
	if max > 0 && len(evs) > max {
		evs = evs[len(evs)-max:]
	}
	return evs
}

// OpenReadPhases returns the rings (tids) whose most recent read-phase event
// is a begin with no matching end — the threads currently (or terminally)
// inside a read phase, which is exactly what a garbage-bound violation dump
// needs to name.
func (r *Recorder) OpenReadPhases() []int {
	last := map[int]Code{}
	for _, e := range r.Events(0) {
		if e.Code == EvReadBegin || e.Code == EvReadEnd || e.Code == EvSigRestart {
			last[e.Ring] = e.Code
		}
	}
	var open []int
	for ring, c := range last {
		if c == EvReadBegin || c == EvSigRestart {
			open = append(open, ring)
		}
	}
	sort.Ints(open)
	return open
}

// WriteTail writes the last max merged events as a human-readable timeline,
// followed by the open-read-phase summary. It is the dump-on-violation hook:
// dstest failures and nbrbench -assert-bound print this instead of a bare
// counter mismatch.
func (r *Recorder) WriteTail(w io.Writer, max int) {
	if r == nil {
		return
	}
	evs := r.Events(max)
	if len(evs) == 0 {
		fmt.Fprintln(w, "flight recorder: no events (recorder disabled or nothing recorded)")
		return
	}
	fmt.Fprintf(w, "flight recorder: last %d events (of surviving window), oldest first:\n", len(evs))
	for _, e := range evs {
		fmt.Fprintf(w, "  %12s  %-4s %-18s arg=%d\n",
			time.Duration(e.TS).String(), r.RingName(e.Ring), e.Code.String(), e.Arg)
	}
	if open := r.OpenReadPhases(); len(open) > 0 {
		names := make([]string, len(open))
		for i, ring := range open {
			names[i] = r.RingName(ring)
		}
		fmt.Fprintf(w, "  open read phases (begin with no end): %s\n", strings.Join(names, " "))
	}
}

// Tail returns WriteTail's output as a string.
func (r *Recorder) Tail(max int) string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	r.WriteTail(&sb, max)
	return sb.String()
}

// HistSnapshot is one histogram's quantile summary, JSON-ready.
type HistSnapshot struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	P50ns int64  `json:"p50_ns"`
	P90ns int64  `json:"p90_ns"`
	P99ns int64  `json:"p99_ns"`
	Maxns int64  `json:"max_ns"`
}

// EventSnapshot is one event, JSON-ready.
type EventSnapshot struct {
	TSns int64  `json:"ts_ns"`
	Ring string `json:"ring"`
	Code string `json:"code"`
	Arg  uint64 `json:"arg"`
}

// Snapshot is the recorder's JSON document, embedded in /debug/nbr.
type Snapshot struct {
	Enabled bool            `json:"enabled"`
	Hists   []HistSnapshot  `json:"hists"`
	Events  []EventSnapshot `json:"events"`
}

// Snapshot captures histogram quantiles and the last maxEvents merged
// events. Nil-safe; safe to call concurrently with writers.
func (r *Recorder) Snapshot(maxEvents int) Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{Enabled: r.on.Load(), Hists: make([]HistSnapshot, 0, NumHists)}
	for h := 0; h < NumHists; h++ {
		hg := &r.hists[h]
		snap.Hists = append(snap.Hists, HistSnapshot{
			Name:  histNames[h],
			Count: hg.Count(),
			P50ns: hg.Quantile(0.50),
			P90ns: hg.Quantile(0.90),
			P99ns: hg.Quantile(0.99),
			Maxns: hg.Max(),
		})
	}
	for _, e := range r.Events(maxEvents) {
		snap.Events = append(snap.Events, EventSnapshot{
			TSns: e.TS, Ring: r.RingName(e.Ring), Code: e.Code.String(), Arg: e.Arg,
		})
	}
	return snap
}
