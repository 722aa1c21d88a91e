package smr

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
)

// ActiveSet is the membership mask shared by the registry, the signal group
// and every scheme's scans (defined next to the signal machinery because
// signalability is its strictest consumer).
type ActiveSet = sigsim.ActiveSet

// ErrRegistryFull is returned by Acquire when every slot is leased or an
// AcquireCtx waiter is queued for the next free one. A quarantined slot is
// admissible: its acquirer waits out the slot's rounds (see take).
var ErrRegistryFull = errors.New("smr: registry full (every slot leased or a waiter queued)")

// Registry hands out dense thread slots as revocable leases, so
// goroutine-pool services can run reclamation-protected operations without a
// fixed thread set. It owns four pieces of shared state:
//
//   - the active mask: the published set of live slots every scan and signal
//     broadcast iterates (cost tracks live threads, not MaxThreads);
//   - the orphan list: records a departing thread could not reclaim on its
//     way out (they were reserved/pinned by peers mid-release), adopted into
//     the next reclaimer's bag DEBRA-style so nothing leaks across
//     membership churn;
//   - the quarantine: released slots age quarantineRounds scan rounds
//     before reuse (see take), so a recycled tid is never confused with its
//     predecessor by an in-flight scan or bookmark snapshot taken while the
//     predecessor was live;
//   - the admission channel: one token per leased slot, which is the only
//     place that decides who gets a freed slot (see AcquireCtx).
//
// A Registry serves one Scheme, which must be bound (Bind) before the first
// Acquire. Acquire/Release are goroutine-safe; each Lease is owned by one
// goroutine at a time.
type Registry struct {
	max    int
	active *ActiveSet
	rounds atomic.Uint64 // completed reclamation scan rounds (EndScan)

	// scheme is the bound scheme: its half of the shared release and
	// revocation path (recovery.go) and the forced-round driver of
	// quarantine aging. forced counts the rounds take forced.
	scheme Scheme
	forced atomic.Uint64
	// Crash-safety counters: reaped counts successful Revokes,
	// revokedReleases counts a zombie's late Release arriving after its
	// lease was revoked (the counted no-op).
	reaped          atomic.Uint64
	revokedReleases atomic.Uint64

	// rec is the flight recorder (nil or disabled: one branch per event
	// site). Bind hands it to the scheme so the whole pipeline shares one
	// timeline.
	rec *obs.Recorder

	mu         sync.Mutex
	fresh      []int // never-yet-quarantined slots (LIFO)
	quarantine []quarSlot

	onAcquire []func(tid int)
	onRelease []func(tid int)

	// admit holds one token per leased slot, sent before take and received
	// once the slot is back in quarantine (finishRelease), so every token
	// names a free slot. waiting counts AcquireCtx callers blocked on a send.
	admit   chan struct{}
	waiting atomic.Int64

	orphans struct {
		mu      sync.Mutex
		ps      []mem.Ptr
		count   atomic.Int64  // mirrors len(ps) so adoption gates stay lock-free
		adopted atomic.Uint64 // lifetime records handed to adopters
	}
}

// quarSlot is a released slot waiting out its scan round.
type quarSlot struct {
	tid   int
	round uint64 // rounds counter at release time
}

// quarantineRounds is how far the round counter must advance past a slot's
// release before the slot is aged: +2 covers one scan that may have been in
// flight (started before the release, bumping the counter after it) plus one
// full round that demonstrably began after the release completed.
const quarantineRounds = 2

// NewRegistry creates a lease registry for max dense slots. The active mask
// starts empty: nothing is a member until Acquire.
func NewRegistry(max int) *Registry {
	r := &Registry{max: max, active: sigsim.NewActiveSet(max), admit: make(chan struct{}, max)}
	r.fresh = make([]int, 0, max)
	for tid := max - 1; tid >= 0; tid-- {
		r.fresh = append(r.fresh, tid) // LIFO pops slot 0 first
	}
	return r
}

// MaxThreads returns the number of slots the registry manages.
func (r *Registry) MaxThreads() int { return r.max }

// Active returns the registry's published membership mask. Schemes adopt it
// at AttachRegistry time; it must not be mutated except through leases.
func (r *Registry) Active() *ActiveSet { return r.active }

// Bind wires a scheme into the registry: the scheme adopts the active mask,
// registers its membership hooks and, when the registry has one, the flight
// recorder; the registry keeps it as the scheme whose recovery steps, forced
// rounds and revocations the lease paths call. It must run after the scheme
// is constructed and before any guard is used.
func (r *Registry) Bind(s Scheme) {
	s.AttachRegistry(r)
	if r.rec != nil {
		s.SetRecorder(r.rec)
	}
	r.scheme = s
}

// SetRecorder attaches a flight recorder to the registry. It must be wired
// before the registry is used concurrently and before Bind, which hands the
// same recorder to the scheme.
func (r *Registry) SetRecorder(rec *obs.Recorder) { r.rec = rec }

// ForcedRounds returns how many scan rounds take forced to age a slot.
func (r *Registry) ForcedRounds() uint64 { return r.forced.Load() }

// FallbackReuses is always zero: a quarantined slot is reused only once it
// has aged, with the missing rounds forced (take). The accessor remains
// because the frozen benchmark's traced twin (benchmark/traced.go) reads it;
// it goes when a benchmark issue drops that read.
func (r *Registry) FallbackReuses() uint64 { return 0 }

// OnAcquire registers a hook run on the acquiring goroutine each time a slot
// is handed out, after the slot is assigned and before it is marked active.
// Hooks must be registered before the registry is used concurrently.
func (r *Registry) OnAcquire(f func(tid int)) { r.onAcquire = append(r.onAcquire, f) }

// OnRelease registers a hook run on the releasing goroutine during recovery
// (a Release or a Revoke), after the slot has left the active mask and the
// bound scheme has quiesced it and drained its allocator caches
// (runRecovery). Hooks run in registration order and must be registered
// before the registry is used concurrently.
func (r *Registry) OnRelease(f func(tid int)) { r.onRelease = append(r.onRelease, f) }

// Waiters returns how many AcquireCtx callers are queued for a slot.
func (r *Registry) Waiters() int { return int(r.waiting.Load()) }

// BeginScan marks the start of a reclamation scan (a reservation/hazard/era
// collection and its sweep). Schemes bound to the registry bracket every
// scan with BeginScan/EndScan; only the end counts, toward quarantine aging.
func (r *Registry) BeginScan() {
	if r.rec.Enabled() {
		r.rec.Sys(obs.EvScanBegin, r.rounds.Load())
	}
}

// EndScan marks the scan complete, counting one finished round toward
// quarantine aging.
func (r *Registry) EndScan() {
	rounds := r.rounds.Add(1)
	if r.rec.Enabled() {
		r.rec.Sys(obs.EvScanEnd, rounds)
	}
}

// Acquire leases a dense slot without waiting: the slot's scheme and
// allocator state is readied by the registered hooks, the slot is published
// in the active mask, and the returned lease's Tid may be used with
// Scheme.Guard until Release. Its admission token is a non-blocking send, so
// it fails with ErrRegistryFull exactly while every slot is leased or an
// AcquireCtx waiter is queued; once the token is sent it cannot fail.
func (r *Registry) Acquire() (*Lease, error) {
	select {
	case r.admit <- struct{}{}:
		return r.take(), nil
	default:
		return nil, ErrRegistryFull
	}
}

// AcquireCtx leases a dense slot like Acquire, but blocks while the registry
// is full until a release frees a slot or ctx is done. Blocked callers are
// admitted in FIFO order: Go queues the senders blocked on a channel first
// in, first out, and the release that receives a token moves the head
// sender's token into the buffer, which stays full to everyone else. Once
// admitted it cannot fail: the token names a slot (see take).
func (r *Registry) AcquireCtx(ctx context.Context) (*Lease, error) {
	var t0 int64 // enqueue time; 0 when not queued or the recorder is off
	select {
	case r.admit <- struct{}{}:
	default:
		t0 = r.rec.Clock()
		r.rec.Adm(obs.EvAdmitEnqueue, uint64(r.waiting.Add(1)))
		select {
		case r.admit <- struct{}{}:
			r.waiting.Add(-1)
		case <-ctx.Done():
			r.waiting.Add(-1)
			r.rec.Adm(obs.EvAdmitCancel, 0)
			return nil, ctx.Err()
		}
	}
	l := r.take()
	if t0 != 0 {
		r.rec.ObserveSince(obs.HistAdmissionWait, t0)
		r.rec.Adm(obs.EvAdmitted, 0)
	}
	return l, nil
}

// take hands a token holder its slot; it cannot fail. Under the lock it pops
// a fresh (never-yet-quarantined) slot, else the quarantine head. The pop
// always finds one: finishRelease quarantines a slot before it receives its
// lease's token, so callers in take never outnumber free slots. The popped
// slot is the caller's alone, so off the lock take waits out its round
// guarantee — quarantineRounds scan rounds completed since its release, so
// no scan that could have captured the predecessor still runs — forcing each
// missing round through the bound scheme. A forced round is a bracketed
// collection that completes one round, so there are at most quarantineRounds
// of them, and none once the slot has aged organically.
func (r *Registry) take() *Lease {
	r.mu.Lock()
	var tid int
	var due uint64 // the round count that ages the slot; 0 when fresh
	if n := len(r.fresh); n > 0 {
		tid = r.fresh[n-1]
		r.fresh = r.fresh[:n-1]
	} else if len(r.quarantine) > 0 {
		head := r.quarantine[0]
		r.quarantine = r.quarantine[1:]
		tid, due = head.tid, head.round+quarantineRounds
	} else {
		r.mu.Unlock()
		panic("smr: admission token with no free slot")
	}
	r.mu.Unlock()
	// Off the lock: Release and other takes must not wait behind a round.
	for r.rounds.Load() < due {
		r.scheme.ForceRound()
		r.forced.Add(1)
		r.rec.Sys(obs.EvForcedRound, r.rounds.Load())
	}
	if due != 0 {
		r.rec.Rec(tid, obs.EvQuarRecycle, r.rounds.Load()+quarantineRounds-due)
	}
	for _, f := range r.onAcquire {
		f(tid)
	}
	l := &Lease{reg: r, tid: tid}
	if r.rec.Enabled() {
		l.start = r.rec.Clock()
		r.rec.Rec(tid, obs.EvAcquire, uint64(tid))
	}
	r.active.Set(tid)
	return l
}

// Release returns the lease's slot: the slot leaves the active mask, the
// shared recovery path quiesces its scheme and allocator state (reclaiming
// what it can, orphaning the rest — see recovery.go), and the slot enters
// quarantine (see take for when it becomes reusable). Release is
// idempotent per lease and must be called by the goroutine that owns it;
// each Acquire returns a distinct Lease, so a duplicate Release of an old
// lease can never revoke the slot's next occupant. A Release arriving after
// the lease was involuntarily revoked (the zombie waking up) is the same
// harmless no-op, counted in RevokedReleases.
func (l *Lease) Release() {
	if l.released.Swap(true) {
		if l.revoked.Load() {
			l.reg.revokedReleases.Add(1)
		}
		return
	}
	r := l.reg
	r.active.Clear(l.tid)
	if r.rec.Enabled() {
		r.rec.ObserveSince(obs.HistLeaseHold, l.start)
		r.rec.Rec(l.tid, obs.EvRelease, uint64(l.tid))
	}
	r.runRecovery(l.tid)
	r.finishRelease(l.tid)
}

// Lease is one leased slot. Tid is stable for the lease's lifetime; after
// Release the lease must not be used.
type Lease struct {
	reg      *Registry
	tid      int
	released atomic.Bool
	revoked  atomic.Bool
	start    int64 // recorder clock at Acquire (0 when not measured)
}

// Tid returns the dense slot this lease owns.
func (l *Lease) Tid() int { return l.tid }

// Revoked reports whether the lease was involuntarily revoked by the
// watchdog/reaper. The public operation layer checks it on entry so a
// zombie of a scheme without signal delivery points is still caught at its
// next operation.
func (l *Lease) Revoked() bool { return l.revoked.Load() }

// AddOrphans appends a departing thread's unreclaimable records to the
// shared orphan list. The slice is not retained.
func (r *Registry) AddOrphans(ps []mem.Ptr) {
	if len(ps) == 0 {
		return
	}
	r.orphans.mu.Lock()
	r.orphans.ps = append(r.orphans.ps, ps...)
	r.orphans.count.Store(int64(len(r.orphans.ps)))
	r.orphans.mu.Unlock()
}

// OrphanCount returns the number of orphaned records awaiting adoption. It
// is the lock-free gate reclaimers poll before paying for AdoptOrphans.
func (r *Registry) OrphanCount() int { return int(r.orphans.count.Load()) }

// AdoptOrphans moves up to max orphaned records (all of them when max <= 0)
// into dst and returns the grown dst. The adopter must treat the records as
// freshly retired under its own protocol — they entered the orphan list
// already counted in Stats.Retired, so adoption must not re-count them.
func (r *Registry) AdoptOrphans(dst []mem.Ptr, max int) []mem.Ptr {
	if r.orphans.count.Load() == 0 {
		return dst
	}
	r.orphans.mu.Lock()
	n := len(r.orphans.ps)
	take := n
	if max > 0 && take > max {
		take = max
	}
	dst = append(dst, r.orphans.ps[n-take:]...)
	r.orphans.ps = r.orphans.ps[:n-take]
	r.orphans.count.Store(int64(n - take))
	r.orphans.adopted.Add(uint64(take))
	r.orphans.mu.Unlock()
	r.rec.Sys(obs.EvOrphanAdopt, uint64(take))
	return dst
}
