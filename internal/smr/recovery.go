package smr

import "nbr/internal/obs"

// This file is the shared quiesce/recovery path. Voluntary Release,
// panic-unwind release and involuntary revocation (the lease watchdog
// reaping a wedged holder) all need the same sequence — adopt the orphan
// list, run one full reclamation attempt, drain the slot's allocator caches,
// orphan the survivors, clear the slot's announcements — so it lives here
// once, owned by the Registry. The scheme's half is two calls: the kernel's
// Recover, the same body for every scheme, and the scheme's own ResetSlot.

// runRecovery is the one quiesce path every release flavor converges on:
// the bound scheme's Recover and ResetSlot, then any registered release
// hooks, on the calling goroutine. The caller has already removed tid from
// the active mask and owns the slot's guard-local state — as the lease
// holder, or as the reaper of a holder that is presumed wedged (see
// Registry.Revoke for why that is sound).
func (r *Registry) runRecovery(tid int) {
	r.scheme.Recover(tid)
	r.scheme.ResetSlot(tid)
	for _, f := range r.onRelease {
		f(tid)
	}
}

// finishRelease quarantines the slot, then receives the lease's admission
// token: with a waiter queued, that receive moves the head waiter's token
// into the buffer, so the slot goes to the longest AcquireCtx waiter. Shared
// tail of Release and Revoke.
func (r *Registry) finishRelease(tid int) {
	r.mu.Lock()
	r.quarantine = append(r.quarantine, quarSlot{tid: tid, round: r.rounds.Load()})
	r.mu.Unlock()
	<-r.admit
}

// Revoke forcibly releases a lease the holder will never return — the
// watchdog's reap path. It returns false (and does nothing) if the lease was
// already released or revoked. On success the slot leaves the active mask, a
// sticky revocation is posted through the scheme's signal group when it has
// one (RevokeSlot), the shared recovery path runs on the CALLER's
// goroutine, and the slot enters quarantine and passes to the next
// AcquireCtx waiter, as on a voluntary Release.
//
// Safety of reaping a holder that may still be running: (1) the lease value
// is revoked first, so the zombie's own late Release is a counted no-op and
// can never evict a successor; (2) for signal-capable schemes the zombie is
// killed at its next delivery point; for the rest, the public layer checks
// the lease's revoked flag on every operation entry; (3) the slot then ages
// through the same quarantine as any release, so in-flight scans that
// snapshotted the zombie expire before reuse. What revocation cannot do is
// interrupt a zombie blocked *inside* a shared-record access — the real
// paper uses an OS signal there; the simulation's contract is that a
// reaped holder is genuinely wedged (or killed at a delivery point), which
// the watchdog's deadline expresses.
func (r *Registry) Revoke(l *Lease) bool {
	if l.reg != r {
		panic("smr: Revoke with a lease from a different registry")
	}
	if l.released.Swap(true) {
		// Lost to a voluntary Release (or a duplicate Revoke): that path
		// owns the slot's recovery; nothing to do.
		return false
	}
	// The reap is counted before revoked is published: a zombie's Release
	// counts itself as soon as it sees revoked, so a snapshot never reads
	// more zombie releases than reaps.
	r.reaped.Add(1)
	l.revoked.Store(true)
	r.active.Clear(l.tid)
	if r.rec.Enabled() {
		r.rec.ObserveSince(obs.HistLeaseHold, l.start)
		r.rec.Sys(obs.EvRevoke, uint64(l.tid))
	}
	r.scheme.RevokeSlot(l.tid)
	r.runRecovery(l.tid)
	r.finishRelease(l.tid)
	return true
}

// ReapedLeases returns how many leases were involuntarily revoked (Revoke
// succeeded).
func (r *Registry) ReapedLeases() uint64 { return r.reaped.Load() }

// RevokedReleases returns how many Release calls arrived on an
// already-revoked lease — the zombie's late release, counted to prove the
// distinct-lease-value guard made it a harmless no-op.
func (r *Registry) RevokedReleases() uint64 { return r.revokedReleases.Load() }

// OrphansAdopted returns how many orphaned records reclaimers have adopted
// from the registry's list over its lifetime.
func (r *Registry) OrphansAdopted() uint64 { return r.orphans.adopted.Load() }
