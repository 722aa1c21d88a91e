package smr

import "nbr/internal/obs"

// This file is the shared quiesce/recovery path. Before it existed, every
// scheme re-implemented the same release choreography in a private detach
// hook: adopt the orphan list, run one full reclamation attempt, orphan the
// survivors, clear the slot's announcements — and the allocator-cache drain
// rode behind it on a second hook. Voluntary Release, panic-unwind release
// and involuntary revocation (the lease watchdog reaping a wedged holder)
// all need exactly that sequence, so it lives here once, owned by the
// Registry, and schemes keep only the scheme-specific residue behind the
// Quiescer interface.

// Quiescer is the scheme-side residue of the recovery path: the three steps
// whose *content* differs per scheme while their order and surroundings are
// protocol. Bind captures it from the bound scheme; a scheme without one
// (leaky) recovers trivially. All three are called with the slot already out
// of the active mask, by whichever goroutine runs the recovery — the owner
// on a voluntary Release, the reaper on a revocation.
type Quiescer interface {
	// ReclaimAll adopts any orphaned records into tid's bags and runs one
	// full reclamation attempt on them (signal+scan, hazard scan, epoch
	// advance+sweep — whatever the scheme's full-strength pass is).
	ReclaimAll(tid int)
	// OrphanSurvivors hands whatever ReclaimAll could not free to the
	// registry's orphan list and empties tid's bags: the records were
	// reserved or pinned by peers mid-release and will be adopted by the
	// next reclaimer DEBRA-style.
	OrphanSurvivors(tid int)
	// ResetSlot clears tid's announcement and guard-local state for the next
	// occupant (the scheme-specific half; signal-state absorption happens in
	// the scheme's acquire hook).
	ResetSlot(tid int)
}

// SlotRevoker is implemented by schemes with a signal channel to a running
// occupant (the NBR family): RevokeSlot posts a sticky revocation so a
// zombie still executing on the slot is killed at its next delivery point
// (sigsim.Revoked) instead of racing its successor. Schemes without delivery
// points rely on the lease-value guard at the public operation layer.
type SlotRevoker interface {
	RevokeSlot(tid int)
}

// runRecovery is the one quiesce path every release flavor converges on:
// the Quiescer residue in protocol order, then the registered side hooks
// (the allocator thread-cache drain), on the calling goroutine. The caller
// has already removed tid from the active mask and owns the slot's
// guard-local state — as the lease holder, or as the reaper of a holder
// that is presumed wedged (see Registry.Revoke for why that is sound).
func (r *Registry) runRecovery(tid int) {
	if q := r.quiescer; q != nil {
		q.ReclaimAll(tid)
		q.OrphanSurvivors(tid)
		q.ResetSlot(tid)
	}
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
// sticky revocation is posted through the scheme's signal machinery when it
// has one (SlotRevoker), the shared recovery path runs on the CALLER's
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
	l.revoked.Store(true)
	r.active.Clear(l.tid)
	if r.rec.Enabled() {
		r.rec.ObserveSince(obs.HistLeaseHold, l.start)
		r.rec.Sys(obs.EvRevoke, uint64(l.tid))
	}
	if rv := r.revoker; rv != nil {
		rv.RevokeSlot(l.tid)
	}
	r.runRecovery(l.tid)
	r.reaped.Add(1)
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
