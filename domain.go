package nbr

import (
	"cmp"
	"context"
	"errors"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file is the library's single-structure face: a Domain bundles one
// concurrent ordered set with its own private Runtime (registry + scheme +
// arena), so the common case — one structure, one service — needs no
// explicit runtime management. Since the runtime layer landed, Domain is a
// thin attachment: construction builds a one-set Runtime sized to the
// structure's exact announcement widths, and every method delegates.
// Services hosting several structures over one shared registry/arena (one
// lease covering all of them) use NewRuntime/Runtime.NewSet directly; see
// runtime.go and examples/server.

// Stats re-exports the reclamation counters (see smr.Stats).
type Stats = smr.Stats

// MemStats re-exports the allocator counters (see mem.Stats).
type MemStats = mem.Stats

// Unbounded is the GarbageBound sentinel for schemes whose garbage can grow
// without limit.
const Unbounded = smr.Unbounded

// ErrNoLease is returned by Acquire when every thread slot is held.
// Callers back off and retry, use AcquireCtx to wait with a deadline, or
// treat it as admission control.
var ErrNoLease = smr.ErrRegistryFull

// ErrLeaseReaped is returned by With when the lease it was running under
// overran its deadline and was revoked by the watchdog: the handler's slot
// has already been recovered and handed on, so its work must be considered
// void (retry under a fresh lease if it is idempotent).
var ErrLeaseReaped = errors.New("nbr: lease deadline overrun; slot reaped by the watchdog")

// MinKey and MaxKey bound the usable key space; both are sentinels — Insert,
// Delete and Contains accept keys strictly between them.
const (
	MinKey uint64 = 0
	MaxKey uint64 = ^uint64(0)
)

// Schemes lists the reclamation schemes a Domain can run, in the order the
// paper's figures present them.
func Schemes() []string { return append([]string(nil), catalog.SchemeNames...) }

// Structures lists the concurrent ordered sets a Domain can host.
func Structures() []string { return append([]string(nil), catalog.DSNames...) }

// Options configures a Domain. It is RuntimeOptions under its older name —
// an alias, so the two are one struct with one set of defaults; New reads
// Structure, which NewRuntime rejects.
type Options = RuntimeOptions

// Domain is one reclamation-protected concurrent set with dynamic thread
// membership. Goroutines call Acquire for a Lease, operate through it, and
// Release it when done; leases recycle across any number of short-lived
// goroutines. All methods except Len and Validate are safe for concurrent
// use.
type Domain struct {
	rt  *Runtime
	set *Set
}

// New creates a Domain: a private one-structure Runtime whose scheme is
// sized to exactly the announcement widths the structure declares. Unlike a
// bare Runtime — which defers scheme construction so later attachments can
// widen it — a Domain materializes its scheme eagerly: the structure is
// known, its widths are final, and the domain is ready to serve its first
// Acquire without a construction step on the lease path.
func New(opts Options) (*Domain, error) {
	structure := cmp.Or(opts.Structure, "lazylist")
	opts.Structure = ""
	rt, err := NewRuntime(opts)
	if err != nil {
		return nil, err
	}
	set, err := rt.NewSet(structure)
	if err != nil {
		return nil, err
	}
	if _, err := rt.materialize(); err != nil {
		return nil, err
	}
	return &Domain{rt: rt, set: set}, nil
}

// Runtime returns the domain's underlying shared-reclamation runtime. More
// structures can be attached to it with NewSet; they share the domain's
// thread slots, stats and garbage bound. Note that a domain's scheme is
// sized to its own structure's exact announcement widths, so NewSet refuses
// attachments declaring wider needs — services planning several structures
// should start from NewRuntime, whose scheme is sized for all of them.
func (d *Domain) Runtime() *Runtime { return d.rt }

// Acquire leases a thread slot for the calling goroutine. Release the lease
// when the goroutine's burst of work is done; holding it across long idle
// periods is harmless (an idle lease blocks nothing under NBR), but the
// registry can only serve MaxThreads concurrent holders.
func (d *Domain) Acquire() (*Lease, error) {
	l, err := d.rt.Acquire()
	if err != nil {
		return nil, err
	}
	l.set = d.set
	return l, nil
}

// AcquireCtx leases a thread slot, blocking FIFO-fairly while the registry
// is full until a slot frees or ctx is done (see Runtime.AcquireCtx).
func (d *Domain) AcquireCtx(ctx context.Context) (*Lease, error) {
	l, err := d.rt.AcquireCtx(ctx)
	if err != nil {
		return nil, err
	}
	l.set = d.set
	return l, nil
}

// With runs fn under a freshly acquired lease with the panic-safe release
// guarantee of Runtime.With; the lease operates on the domain's set directly
// (lease.Insert(key) etc.).
func (d *Domain) With(ctx context.Context, fn func(*Lease) error) error {
	return d.rt.with(ctx, d.set, fn)
}

// MaxThreads returns the registry capacity.
func (d *Domain) MaxThreads() int { return d.rt.MaxThreads() }

// ActiveThreads returns the number of currently held leases (approximate
// under churn).
func (d *Domain) ActiveThreads() int { return d.rt.ActiveThreads() }

// Scheme returns the reclamation scheme's name.
func (d *Domain) Scheme() string { return d.rt.Scheme() }

// Structure returns the data structure's name.
func (d *Domain) Structure() string { return d.set.Name() }

// Stats returns the aggregate reclamation counters.
func (d *Domain) Stats() Stats { return d.rt.Stats() }

// MemStats returns the allocator counters (live records ≈ resident memory).
func (d *Domain) MemStats() MemStats { return d.set.MemStats() }

// GarbageBound returns the scheme's declared worst-case retired-but-unfreed
// record count across all threads (or Unbounded). The bound is declared
// against MaxThreads and holds across lease churn, orphaned records
// included.
func (d *Domain) GarbageBound() int { return d.rt.GarbageBound() }

// Len counts the keys in the set. Quiescent: no concurrent mutators.
func (d *Domain) Len() int { return d.set.Len() }

// Validate checks the structure's invariants. Quiescent.
func (d *Domain) Validate() error { return d.set.Validate() }

// Drain adopts any orphaned records and reclaims everything reclaimable,
// using a temporary lease. At quiescence it runs until every retired record
// is freed; under concurrent traffic it is a best-effort pass. Use it before
// reading final Stats or shutting down.
func (d *Domain) Drain() error { return d.rt.Drain() }

// Lease is one goroutine's membership in a Runtime (and so in every Set
// attached to it): a dense thread slot plus the per-thread guard every
// operation runs under. A Lease must be used by one goroutine at a time and
// released when done; after Release it must not be used.
type Lease struct {
	rt  *Runtime
	set *Set // the home set of a Domain-issued lease; nil for Runtime leases
	l   *smr.Lease
	g   smr.Guard
	// watched records that a reap deadline was registered for this lease
	// (LeaseTimeout at Acquire, or SetDeadline). Owner-written: the lease is
	// goroutine-affine.
	watched bool
}

// Tid returns the dense thread slot this lease occupies (diagnostic; slots
// recycle across leases).
func (l *Lease) Tid() int { return l.l.Tid() }

// Release returns the slot to the registry through the shared recovery
// path. The departing thread's unreclaimed records are reclaimed or handed
// to the runtime's orphan list — nothing leaks, whatever state the protocol
// was in. Releasing a lease the watchdog already reaped is a counted no-op
// (see Runtime.RevokedReleases).
func (l *Lease) Release() {
	l.unwatch()
	l.l.Release()
}

// unwatch drops the lease's reap deadline, if it ever had one.
func (l *Lease) unwatch() {
	if l.watched {
		l.watched = false
		l.rt.unwatchLease(l.l)
	}
}

// SetDeadline overrides this lease's reap deadline: the watchdog revokes the
// lease if it is still outstanding at t. A zero t clears the deadline,
// opting this lease out of reaping (e.g. a long-running maintenance task on
// a runtime whose LeaseTimeout is tuned for request handlers).
func (l *Lease) SetDeadline(t time.Time) {
	if t.IsZero() {
		l.unwatch()
		return
	}
	l.watched = true
	l.rt.watchLease(l.l, t)
}

// Revoked reports whether the watchdog reaped this lease. A revoked lease
// must not be used: operations on it panic sigsim.Revoked (converted to
// ErrLeaseReaped by With), and its Release is a counted no-op.
func (l *Lease) Revoked() bool { return l.l.Revoked() }

// home returns the Domain set behind a Domain-issued lease. Runtime leases
// have no home set: one lease covers many sets, so operations go through a
// Set (set.Insert(lease, key)).
func (l *Lease) home() *Set {
	if l.set == nil {
		panic("nbr: lease was issued by a Runtime, not a Domain; operate through a Set (set.Insert(lease, key))")
	}
	return l.set
}

// Contains reports whether key is in the domain's set.
func (l *Lease) Contains(key uint64) bool { return l.home().Contains(l, key) }

// Insert adds key, reporting false if it was already present.
func (l *Lease) Insert(key uint64) bool { return l.home().Insert(l, key) }

// Delete removes key, reporting false if it was absent.
func (l *Lease) Delete(key uint64) bool { return l.home().Delete(l, key) }
