package nbr

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// This file is the shared reclamation runtime. The paper's machinery —
// signals, reservations, bounded garbage — is per-*thread*, not
// per-*structure*, so a service hosting several concurrent sets should not
// pay one lease, one registry and one signal group per structure. A Runtime
// owns exactly one smr.Registry, one scheme instance and one shared arena (a
// mem.Hub routing to each structure's pool by the arena tag carried in every
// handle), and hands out a single Lease valid across every Set attached to
// it. One lease per request covers all of a handler's structures; the
// garbage bound is declared once per runtime and covers every structure's
// retired records, because they all live in the same per-thread bags. A
// single-structure service is the one-Set case of the same API.

// RuntimeOptions configures a Runtime with the four values a service sets:
// the scheme, the registry's capacity, the lease watchdog and the NBR bag
// size. The zero value selects the paper's defaults: NBR+ sized for a
// moderately parallel host. Structures are not options: they attach with
// NewSet, and the scheme is sized to the widths they declare.
type RuntimeOptions struct {
	// Scheme names the reclamation scheme (see Schemes). Default "nbr+".
	Scheme string
	// MaxThreads is the lease-registry capacity shared by every attached
	// structure: the most goroutines that can hold a lease at once. Size it
	// for peak concurrency, not for the total goroutine population — scans
	// and signal broadcasts cost proportional to *live* leases, so
	// over-provisioning is cheap. Default 2·GOMAXPROCS, at least 8.
	MaxThreads int

	// LeaseTimeout, when positive, arms the lease watchdog: every lease gets
	// a reap deadline of Acquire time + LeaseTimeout (override per lease with
	// SetDeadline), kept by a Go runtime timer that Release stops. A holder
	// still outstanding past its deadline is presumed wedged and reaped — its
	// lease value is revoked (a late Release becomes a counted no-op), a
	// sticky neutralization signal kills a zombie still running on a
	// signal-capable scheme, the shared recovery path quiesces the slot from
	// the timer's goroutine, and the slot is handed to the next AcquireCtx
	// waiter. Zero disables reaping (the pre-watchdog behavior: a lost lease
	// strands its slot).
	LeaseTimeout time.Duration

	// BagSize is the NBR/NBR+ limbo-bag HiWatermark: the records a thread
	// retires before it reclaims, and so the main term of the garbage bound.
	// Zero selects the scheme's default (1024). Every other knob — NBR+'s
	// LoWatermark and scan cadence, the pointer and epoch schemes'
	// retire-buffer depth, the era period — takes its scheme's own default
	// (DESIGN.md §6), and a neutralization signal carries no simulated
	// price: only the fixed-N harness charges one (DESIGN.md §2).
	BagSize int
}

func (o RuntimeOptions) withDefaults() RuntimeOptions {
	if o.Scheme == "" {
		o.Scheme = "nbr+"
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = 2 * runtime.GOMAXPROCS(0)
		if o.MaxThreads < 8 {
			o.MaxThreads = 8
		}
	}
	return o
}

// Runtime is one shared reclamation substrate: one thread-lease registry,
// one reclamation scheme, one arena hub, any number of attached structures.
// All methods are safe for concurrent use except where noted on Set.
//
// The scheme is constructed lazily, at the first Acquire (or Drain): until
// then NewSet grows the announcement widths monotonically to the maximum the
// attached structures declare, so the scheme's reservation and hazard scans
// run at the paper-exact narrow per-DS widths (≤3 reservations for every
// structure in the harness) instead of a conservative global worst case: a
// runtime hosting one structure scans exactly the widths that structure
// declares. Once the scheme exists the widths are frozen: a later NewSet
// whose structure fits still attaches (and is cache-sized for every live
// slot), but one declaring wider needs is rejected — attach it before the
// first lease.
type Runtime struct {
	opts RuntimeOptions
	hub  *mem.Hub
	reg  *smr.Registry

	mu   sync.Mutex      // guards sets, req and scheme materialization
	req  ds.Requirements // announcement widths (grown until materialized)
	sets []*Set

	// sch is the materialized scheme: nil until the first Acquire/Drain,
	// immutable after. The atomic pointer keeps the lease path lock-free
	// once materialized; materialization itself serializes under mu.
	sch atomic.Pointer[schemeBox]

	// rec is the flight recorder shared by the whole pipeline (registry,
	// scheme, signal group, hub, admission). Created disabled — every
	// instrumented hot path costs one predictable branch — and switched on
	// with Observe; Debug()/expvar expose its timeline and histograms.
	rec *obs.Recorder
}

// schemeBox wraps the scheme interface so it fits an atomic.Pointer, next to
// the pprof label sets built with it: one for With's lease sessions, one for
// the reaps of deadline timers. Both name the scheme, so building them once
// here keeps pprof.Labels off every session.
type schemeBox struct {
	s            smr.Scheme
	with, reaper pprof.LabelSet
}

// NewRuntime creates a Runtime with no structures attached; NewSet attaches
// them. An unknown scheme name is rejected here, not at the first Acquire.
func NewRuntime(opts RuntimeOptions) (*Runtime, error) {
	opts = opts.withDefaults()
	if err := catalog.CheckScheme(opts.Scheme); err != nil {
		return nil, fmt.Errorf("nbr: %w", err)
	}
	rt := &Runtime{
		opts: opts,
		hub:  mem.NewHub(opts.MaxThreads),
		reg:  smr.NewRegistry(opts.MaxThreads),
		rec:  obs.NewRecorder(opts.MaxThreads),
	}
	// Recorder wiring precedes Bind (materialize), so the scheme adopts the
	// same timeline when it is built.
	rt.reg.SetRecorder(rt.rec)
	rt.hub.SetRecorder(rt.rec)
	return rt, nil
}

// materialize builds the scheme at the widths the attached structures
// declared and wires it into the registry; idempotent, and a no-op once
// built. Every path that hands out a guard (Acquire) or drives the scheme
// (Drain) goes through it, so "materialized" and "a lease may exist"
// coincide — which is why NewSet can treat a materialized scheme as
// width-frozen.
func (rt *Runtime) materialize() (smr.Scheme, error) {
	if b := rt.sch.Load(); b != nil {
		return b.s, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b := rt.sch.Load(); b != nil {
		return b.s, nil
	}
	req := rt.req
	if req.Threshold <= 0 {
		req.Threshold = ds.DefaultThreshold
	}
	cfg := catalog.SchemeConfig{BagSize: rt.opts.BagSize}
	scheme, err := catalog.NewSchemeFor(rt.opts.Scheme, rt.hub, rt.opts.MaxThreads, cfg, req)
	if err != nil {
		return nil, fmt.Errorf("nbr: %w", err)
	}
	rt.reg.Bind(scheme)
	rt.req = req
	rt.sch.Store(&schemeBox{
		s:      scheme,
		with:   pprof.Labels("scheme", scheme.Name(), "structure", "runtime"),
		reaper: pprof.Labels("scheme", scheme.Name(), "structure", "watchdog"),
	})
	return scheme, nil
}

// NewSet attaches a structure to the runtime: the structure's pool is
// created under the next arena tag and registered with the hub, so records
// it retires are routed home from the runtime's shared bags. The returned
// Set shares the runtime's thread slots, stats and garbage bound with every
// other attachment.
//
// Before the first lease, an attachment may widen the scheme's announcement
// widths (they grow to the maximum any attached structure declares). After
// the first lease the widths are frozen: a structure that fits them still
// attaches — its pool is sized for every live slot exactly as if it had
// been attached up front — but a wider one is rejected: attach every
// structure the runtime will need before its first lease.
func (rt *Runtime) NewSet(structure string) (*Set, error) {
	if err := catalog.Check(structure, rt.opts.Scheme); err != nil {
		return nil, fmt.Errorf("nbr: %w", err)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	tag := rt.hub.NextTag()
	if tag >= mem.MaxTags { // the arena-tag space of a handle
		return nil, fmt.Errorf("nbr: runtime full (%d structures attached)", tag)
	}
	inst, err := catalog.NewDSArena(structure, mem.Config{MaxThreads: rt.opts.MaxThreads, Tag: tag})
	if err != nil {
		return nil, fmt.Errorf("nbr: %w", err)
	}
	if rt.sch.Load() != nil {
		// Width-frozen: the scheme exists, so its reservation rows and
		// hazard arrays cannot grow under live guards.
		if inst.Req.Slots > rt.req.Slots || inst.Req.Reservations > rt.req.Reservations {
			return nil, fmt.Errorf("nbr: %s needs %d protect slots and %d reservations, but the runtime's scheme is already built at %d/%d; attach it before the first lease",
				structure, inst.Req.Slots, inst.Req.Reservations, rt.req.Slots, rt.req.Reservations)
		}
	} else {
		rt.req.Widen(inst.Req)
	}
	rt.hub.Attach(tag, inst.Arena)
	s := &Set{rt: rt, inst: inst, name: structure}
	rt.sets = append(rt.sets, s)
	return s, nil
}

// Widths returns the announcement widths the runtime's scans run at: the
// number of Protect slots and Reserve slots per thread. Before the first
// lease they track the widest attached structure (every scan is N·width
// entries, so a runtime pays for exactly the widths its structures declare);
// after it they are frozen.
func (rt *Runtime) Widths() (protectSlots, reservations int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	req := rt.req
	if rt.sch.Load() == nil {
		// Report what materialize would build right now.
		if req.Slots <= 0 {
			req.Slots = ds.DefaultRequirements.Slots
		}
		if req.Reservations <= 0 {
			req.Reservations = ds.DefaultRequirements.Reservations
		}
	}
	return req.Slots, req.Reservations
}

// StagedFrees is always zero: the shared arena frees every record in the
// call that reclaims it. The accessor remains because the frozen benchmark
// oracle (benchmark/oracle.go) reads it; it goes when a benchmark issue
// drops that read.
func (rt *Runtime) StagedFrees() int { return 0 }

// Acquire leases a thread slot valid across every Set attached to this
// runtime. It fails fast with ErrNoLease when every slot is held or an
// AcquireCtx waiter is queued (a freed slot goes to the longest waiter); use
// AcquireCtx to wait instead. The first Acquire freezes the scheme's
// announcement widths (see NewSet).
func (rt *Runtime) Acquire() (*Lease, error) {
	if _, err := rt.materialize(); err != nil {
		return nil, err
	}
	return rt.wrap(rt.reg.Acquire())
}

// AcquireCtx leases a thread slot, blocking while the registry is full
// until a slot frees up or ctx is done. Blocked callers are admitted in
// FIFO order — each release passes its slot to the longest waiter, and
// Acquire fails while anyone is queued (smr.Registry.AcquireCtx) — so an
// oversubscribed server degrades to an orderly queue with deadlines instead
// of a spin-retry storm.
func (rt *Runtime) AcquireCtx(ctx context.Context) (*Lease, error) {
	if _, err := rt.materialize(); err != nil {
		return nil, err
	}
	return rt.wrap(rt.reg.AcquireCtx(ctx))
}

// wrap turns a registry lease into the public Lease: the scheme's guard for
// its slot and, under LeaseTimeout, its reap deadline. The caller has
// materialized the scheme, so its box is set.
func (rt *Runtime) wrap(l *smr.Lease, err error) (*Lease, error) {
	if err != nil {
		return nil, err
	}
	lease := &Lease{rt: rt, l: l, g: rt.sch.Load().s.Guard(l.Tid())}
	if d := rt.opts.LeaseTimeout; d > 0 {
		lease.SetDeadline(time.Now().Add(d))
	}
	return lease, nil
}

// With runs fn under a freshly acquired lease and guarantees the lease is
// returned through the shared recovery path whatever happens inside: on a
// clean return, on an error, and on a panic — which is recovered, the lease
// released, and then rethrown. A panic caused by the watchdog reaping this
// very lease (the holder overran its deadline and got neutralized) is not
// rethrown: the release is already a counted no-op and fn's work is void, so
// With reports ErrLeaseReaped instead. This is the recommended way to write
// request handlers: a handler that panics or overruns can never strand a
// slot.
func (rt *Runtime) With(ctx context.Context, fn func(*Lease) error) (err error) {
	l, err := rt.AcquireCtx(ctx)
	if err != nil {
		return err
	}
	defer func() {
		p := recover()
		l.Release()
		if p == nil {
			if err == nil && l.Revoked() {
				err = ErrLeaseReaped
			}
			return
		}
		if _, ok := p.(sigsim.Revoked); ok {
			err = ErrLeaseReaped
			return
		}
		panic(p)
	}()
	// The lease session runs under pprof labels so CPU profiles attribute
	// samples — including the reclamation work fn's retires trigger — to the
	// scheme doing it. AcquireCtx built the scheme, so its box is set.
	pprof.Do(ctx, rt.sch.Load().with, func(context.Context) {
		err = fn(l)
	})
	return err
}

// reap is a deadline timer's function (Lease.SetDeadline): it runs on the
// timer's own goroutine once lease l's deadline at has passed, and revokes l
// through the registry's shared recovery path (Registry.Revoke), so the
// recovery, allocator-cache drain included, runs here and not on the wedged
// holder's goroutine. Overdue leases are reaped concurrently, each as
// independent as two voluntary releases. Revoke's swap of the lease's
// released flag is the only arbiter: a timer whose function starts after a
// Release loses it and does nothing. A revoked slot passes to the longest
// AcquireCtx waiter exactly like a voluntarily released one.
func (rt *Runtime) reap(l *smr.Lease, at time.Time) {
	// Labelled so profiles attribute the recovery work to the watchdog. A
	// lease exists, so the scheme's box is set.
	pprof.Do(context.Background(), rt.sch.Load().reaper, func(context.Context) {
		if rt.reg.Revoke(l) {
			// Reap latency: deadline → revocation delivered.
			rt.rec.Observe(obs.HistReapLatency, time.Since(at).Nanoseconds())
			rt.rec.Sys(obs.EvReap, uint64(l.Tid()))
		}
	})
}

// FallbackReuses is always zero: a quarantined slot is reused only once it
// has aged, with the missing rounds forced. The accessor remains because the
// frozen benchmark oracle (benchmark/oracle.go) reads it; it goes when a
// benchmark issue drops that read.
func (rt *Runtime) FallbackReuses() uint64 { return 0 }

// MaxThreads returns the registry capacity shared by all attached sets.
func (rt *Runtime) MaxThreads() int { return rt.opts.MaxThreads }

// Scheme returns the reclamation scheme's name. Before the first lease this
// is the configured name (the scheme is built lazily).
func (rt *Runtime) Scheme() string {
	if b := rt.sch.Load(); b != nil {
		return b.s.Name()
	}
	return rt.opts.Scheme
}

// Structures returns the names of the attached sets, in attachment order.
func (rt *Runtime) Structures() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := make([]string, len(rt.sets))
	for i, s := range rt.sets {
		names[i] = s.name
	}
	return names
}

// Stats returns the aggregate reclamation counters across every attached
// structure — one scheme, one set of bags, one tally. Before the first lease
// every counter is zero (nothing can retire without a lease), so the zero
// value is returned without building the scheme.
func (rt *Runtime) Stats() Stats {
	if b := rt.sch.Load(); b != nil {
		return b.s.Stats()
	}
	return Stats{}
}

// MemStats returns the allocator counters summed across every attached
// structure's pools (mem.Stats.Plus). SlotSize is reported only while every
// one of those pools has the same slot size, so it is 0 once two record
// types are attached — and for a runtime holding only a dgt tree, whose
// routers and leaves are two pools of different sizes.
func (rt *Runtime) MemStats() MemStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var agg MemStats
	for _, s := range rt.sets {
		agg = agg.Plus(s.inst.MemStats())
	}
	return agg
}

// GarbageBound returns the runtime's declared worst-case retired-but-unfreed
// record count (or Unbounded). It is declared once per runtime and covers
// every attached structure: all structures retire into the same per-thread
// bags, so the per-structure garbage aggregates inside the single scheme
// bound instead of summing one bound per structure. Before the first lease
// the bound is 0 — no lease, no retire, no garbage — and it rises to the
// scheme's declared bound when the first Acquire builds the scheme.
func (rt *Runtime) GarbageBound() int {
	if b := rt.sch.Load(); b != nil {
		return b.s.GarbageBound()
	}
	return 0
}

// Drain adopts any orphaned records and reclaims everything reclaimable
// across all attached structures: the scheme's Quiesce under a temporary
// lease. That lease takes a slot like Acquire, so Drain fails with
// ErrNoLease while every slot is held or an AcquireCtx waiter is queued. At
// quiescence every retired record is freed when it returns (departed slots'
// leftovers are orphans, which the drain adopts); under concurrent traffic
// it is a capped best effort that returns even while epochs keep advancing.
// Use it before reading final Stats or shutting down.
func (rt *Runtime) Drain() error {
	scheme, err := rt.materialize()
	if err != nil {
		return err
	}
	l, err := rt.reg.Acquire()
	if err != nil {
		return err
	}
	defer l.Release()
	scheme.Quiesce(l.Tid())
	return nil
}

// Set is one structure attached to a Runtime. Operations take the lease
// explicitly (set.Insert(lease, key)) because one lease covers many sets.
// Len and Validate are quiescent: no concurrent mutators.
type Set struct {
	rt   *Runtime
	inst catalog.Instance
	name string
}

// Name returns the structure's name (see Structures).
func (s *Set) Name() string { return s.name }

// guardOf returns the per-thread guard behind l, refusing a lease from a
// different runtime — its tid indexes another registry's slots, so honoring
// it would alias two threads' announcement rows — and killing a zombie: a
// lease the watchdog reaped panics sigsim.Revoked on its next operation, so
// holders of schemes without mid-operation signal delivery are still caught
// before they can race the slot's successor. With converts the unwind into
// ErrLeaseReaped.
func (s *Set) guardOf(l *Lease) smr.Guard {
	if l.rt != s.rt {
		panic("nbr: lease used with a Set attached to a different Runtime")
	}
	if l.l.Revoked() {
		panic(sigsim.Revoked{})
	}
	return l.g
}

// Contains reports whether key is in the set.
func (s *Set) Contains(l *Lease, key uint64) bool { return s.inst.Set.Contains(s.guardOf(l), key) }

// Insert adds key, reporting false if it was already present.
func (s *Set) Insert(l *Lease, key uint64) bool { return s.inst.Set.Insert(s.guardOf(l), key) }

// Delete removes key, reporting false if it was absent.
func (s *Set) Delete(l *Lease, key uint64) bool { return s.inst.Set.Delete(s.guardOf(l), key) }

// Len counts the keys in the set. Quiescent: no concurrent mutators.
func (s *Set) Len() int { return s.inst.Set.Len() }

// Validate checks the structure's invariants. Quiescent.
func (s *Set) Validate() error { return s.inst.Set.Validate() }

// MemStats returns this structure's own allocator counters (the runtime's
// MemStats sums them across structures).
func (s *Set) MemStats() MemStats { return s.inst.MemStats() }
