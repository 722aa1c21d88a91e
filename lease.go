package nbr

import (
	"errors"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file holds what every user of the package touches besides the
// Runtime and its Sets (runtime.go): the Lease a goroutine operates under,
// the error values, the counter types, and the catalog's names.

// Stats re-exports the reclamation counters (see smr.Stats).
type Stats = smr.Stats

// MemStats re-exports the allocator counters (see mem.Stats).
type MemStats = mem.Stats

// Unbounded is the GarbageBound sentinel for schemes whose garbage can grow
// without limit.
const Unbounded = smr.Unbounded

// ErrNoLease is returned by Acquire when every thread slot is held or an
// AcquireCtx waiter is queued. Callers back off and retry, use AcquireCtx to
// wait with a deadline, or treat it as admission control.
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

// Schemes lists the reclamation schemes a Runtime can run, in the order the
// paper's figures present them.
func Schemes() []string { return append([]string(nil), catalog.SchemeNames...) }

// Structures lists the concurrent ordered sets Runtime.NewSet can attach.
func Structures() []string { return append([]string(nil), catalog.DSNames...) }

// Lease is one goroutine's membership in a Runtime (and so in every Set
// attached to it): a dense thread slot plus the per-thread guard every
// operation runs under. A Lease must be used by one goroutine at a time and
// released when done; after Release it must not be used.
type Lease struct {
	rt *Runtime
	l  *smr.Lease
	g  smr.Guard
	// reap is the timer that revokes this lease at its deadline (LeaseTimeout
	// at Acquire, or SetDeadline); nil while it has none. Owner-written: the
	// lease is goroutine-affine.
	reap *time.Timer
}

// Tid returns the dense thread slot this lease occupies (diagnostic; slots
// recycle across leases).
func (l *Lease) Tid() int { return l.l.Tid() }

// Release returns the slot to the registry through the shared recovery
// path. The departing thread's unreclaimed records are reclaimed or handed
// to the runtime's orphan list — nothing leaks, whatever state the protocol
// was in. Releasing a lease the watchdog already reaped is a counted no-op
// (see Snapshot(0).RevokedReleases).
func (l *Lease) Release() {
	if l.reap != nil {
		l.reap.Stop()
	}
	l.l.Release()
}

// SetDeadline overrides this lease's reap deadline: the watchdog revokes the
// lease if it is still outstanding at t. A zero t clears the deadline,
// opting this lease out of reaping (e.g. a long-running maintenance task on
// a runtime whose LeaseTimeout is tuned for request handlers). A deadline
// that had already passed may have been reaped before this call.
func (l *Lease) SetDeadline(t time.Time) {
	if l.reap != nil {
		l.reap.Stop()
		l.reap = nil
	}
	if !t.IsZero() {
		// The timer's function captures this acquire's smr lease and its
		// own deadline, never a field the owner may rewrite.
		rt, sl := l.rt, l.l
		l.reap = time.AfterFunc(time.Until(t), func() { rt.reap(sl, t) })
	}
}

// Revoked reports whether the watchdog reaped this lease. A revoked lease
// must not be used: operations on it panic sigsim.Revoked (converted to
// ErrLeaseReaped by With), and its Release is a counted no-op.
func (l *Lease) Revoked() bool { return l.l.Revoked() }
