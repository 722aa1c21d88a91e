package nbr_test

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr"
)

// waitUntil polls cond for up to ~2s; the watchdog's cadence is wall-clock,
// so these tests observe it rather than assume exact timing.
func waitUntil(cond func() bool) bool {
	for i := 0; i < 2000; i++ {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// TestRuntimeWatchdogReap pins the reaper's core contract: a holder that
// overruns LeaseTimeout is revoked, its late Release is a counted no-op, and
// its slot recycles to a new holder.
func TestRuntimeWatchdogReap(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// The holder wedges: never releases. The watchdog must reap it.
	if !waitUntil(func() bool { return rt.Snapshot(0).ReapedLeases == 1 }) {
		t.Fatalf("holder not reaped: ReapedLeases = %d", rt.Snapshot(0).ReapedLeases)
	}
	if !l.Revoked() {
		t.Fatal("reaped lease does not report Revoked")
	}
	if got := rt.Snapshot(0).ActiveThreads; got != 0 {
		t.Fatalf("reaped holder still active: ActiveThreads = %d", got)
	}

	// The zombie wakes up and releases late: a counted no-op.
	l.Release()
	if got := rt.Snapshot(0).RevokedReleases; got != 1 {
		t.Fatalf("RevokedReleases = %d, want 1", got)
	}

	// The slot must recycle: both slots acquirable again (AcquireCtx waits
	// out quarantine aging).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	held := make([]*nbr.Lease, 2)
	for i := range held {
		if held[i], err = rt.AcquireCtx(ctx); err != nil {
			t.Fatalf("slot %d not reacquirable after reap: %v", i, err)
		}
	}
	for _, h := range held {
		h.Release()
	}
	// No further reaps: the new holders released before their deadlines...
	// unless the scheduler stalled this test past 10ms, which Revoke then
	// handles identically — so only the zombie accounting is asserted.
	if got, want := rt.Snapshot(0).RevokedReleases, uint64(1); got != want {
		t.Fatalf("voluntary releases counted as revoked: %d, want %d", got, want)
	}
}

// TestRuntimeWithReaped pins With's reap reporting: a handler that overruns
// and returns cleanly gets ErrLeaseReaped (its work is void), and a handler
// killed mid-operation by the revocation unwinds into the same error.
func TestRuntimeWithReaped(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}

	// Overrun, then return cleanly: With must report the reap.
	err = rt.With(context.Background(), func(l *nbr.Lease) error {
		if !waitUntil(l.Revoked) {
			t.Fatal("holder not reaped while wedged inside With")
		}
		return nil
	})
	if !errors.Is(err, nbr.ErrLeaseReaped) {
		t.Fatalf("With after a reap returned %v, want ErrLeaseReaped", err)
	}

	// Overrun, then touch the structure: the zombie is killed at the
	// operation boundary and With converts the unwind.
	err = rt.With(context.Background(), func(l *nbr.Lease) error {
		if !waitUntil(l.Revoked) {
			t.Fatal("holder not reaped while wedged inside With")
		}
		set.Insert(l, 42) // must panic sigsim.Revoked, not reach the set
		t.Fatal("revoked lease operated on the set")
		return nil
	})
	if !errors.Is(err, nbr.ErrLeaseReaped) {
		t.Fatalf("With after a killed operation returned %v, want ErrLeaseReaped", err)
	}

	// A handler error outranks nothing — it passes through untouched when no
	// reap happened.
	rtFast, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtFast.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("handler failed")
	if err := rtFast.With(context.Background(), func(*nbr.Lease) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("With swallowed the handler error: %v", err)
	}
}

// TestRuntimeWithPanicReleases pins the panic-unwind half of With: a user
// panic is rethrown after the lease went back through the shared recovery
// path, so a crashing handler can never strand a slot.
func TestRuntimeWithPanicReleases(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 1, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("handler crashed")
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("With rethrew %v, want the original panic", r)
			}
		}()
		_ = rt.With(context.Background(), func(l *nbr.Lease) error {
			set.Insert(l, 7)
			panic(boom)
		})
		t.Fatal("With returned through a panic")
	}()
	// The single slot must be free again immediately (voluntary-release
	// path: no quarantine wait needed beyond AcquireCtx's patience).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.With(ctx, func(l *nbr.Lease) error {
		if !set.Contains(l, 7) {
			t.Error("pre-panic insert lost")
		}
		set.Delete(l, 7)
		return nil
	}); err != nil {
		t.Fatalf("slot stranded after a handler panic: %v", err)
	}
}

// TestLeaseSetDeadline pins the per-lease override: a zero SetDeadline opts a
// lease out of a runtime-wide LeaseTimeout, and an explicit deadline arms the
// watchdog on a runtime that has none.
func TestLeaseSetDeadline(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128, LeaseTimeout: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.SetDeadline(time.Time{}) // opt out: a long-running maintenance task
	time.Sleep(60 * time.Millisecond)
	if l.Revoked() || rt.Snapshot(0).ReapedLeases != 0 {
		t.Fatalf("deadline-cleared lease was reaped (reaps = %d)", rt.Snapshot(0).ReapedLeases)
	}
	l.Release()

	// Explicit deadline on a watchdog-less runtime.
	rtBare, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtBare.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l2, err := rtBare.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l2.SetDeadline(time.Now().Add(5 * time.Millisecond))
	if !waitUntil(func() bool { return rtBare.Snapshot(0).ReapedLeases == 1 }) {
		t.Fatal("explicit SetDeadline did not arm the watchdog")
	}
	l2.Release()
	if got := rtBare.Snapshot(0).RevokedReleases; got != 1 {
		t.Fatalf("RevokedReleases = %d, want 1", got)
	}
}

// TestLeaseSetDeadlineWakesWatchdog: a deadline registered while the watchdog
// is already asleep toward a later one must wake it. One lease at +30 s puts
// the watchdog to sleep; a second lease then asks for +100 ms and must be
// reaped within 2× that, not when the old sleep runs out.
func TestLeaseSetDeadlineWakesWatchdog(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	patient, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer patient.Release()
	patient.SetDeadline(time.Now().Add(30 * time.Second))
	time.Sleep(5 * time.Millisecond) // let the watchdog compute its sleep

	const deadline = 100 * time.Millisecond
	wedged, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	wedged.SetDeadline(start.Add(deadline))
	for rt.Snapshot(0).ReapedLeases == 0 {
		if time.Since(start) > 2*deadline {
			t.Fatalf("lease with a %v deadline not reaped within %v: the watchdog slept through it", deadline, 2*deadline)
		}
		time.Sleep(time.Millisecond)
	}
	if !wedged.Revoked() || patient.Revoked() {
		t.Fatalf("wrong lease reaped: wedged=%v patient=%v", wedged.Revoked(), patient.Revoked())
	}
	wedged.Release()
}

// TestLeaseSetDeadlineMoves pins moving one lease's deadline: each
// SetDeadline replaces the lease's timer instead of adding one. A deadline
// moved later before it fires does not reap at the old time, and one moved
// to now reaps that lease promptly — and only that lease.
func TestLeaseSetDeadlineMoves(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	bystander, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Release()
	bystander.SetDeadline(time.Now().Add(time.Hour))

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.SetDeadline(time.Now().Add(10 * time.Millisecond))
	l.SetDeadline(time.Now().Add(time.Hour)) // moved before it fires
	time.Sleep(60 * time.Millisecond)
	if l.Revoked() || rt.Snapshot(0).ReapedLeases != 0 {
		t.Fatalf("lease reaped at its old deadline after it was moved later (reaps = %d)", rt.Snapshot(0).ReapedLeases)
	}

	start := time.Now()
	l.SetDeadline(start)
	for !l.Revoked() {
		if time.Since(start) > 200*time.Millisecond {
			t.Fatal("lease whose deadline moved to now not reaped within 200ms")
		}
		time.Sleep(time.Millisecond)
	}
	if reaps := rt.Snapshot(0).ReapedLeases; bystander.Revoked() || reaps != 1 {
		t.Fatalf("moving one lease's deadline reaped another: bystander=%v reaps=%d",
			bystander.Revoked(), reaps)
	}
	l.Release()
	if got := rt.Snapshot(0).RevokedReleases; got != 1 {
		t.Fatalf("RevokedReleases = %d, want 1", got)
	}
}

// TestRuntimeCancelVsReapRace is the regression stress for the AcquireCtx
// admission queue under concurrent cancellation and reaping: a waiter whose
// context fires just as a release (voluntary OR a reap on the watchdog's
// goroutine) hands it a slot's admission token must either keep the slot or
// give the token back, or capacity leaks and a later waiter starves. The
// storm drives all three events — cancel, release, reap — through the queue
// at once; the verdict is that a patient waiter is always admitted
// afterwards.
func TestRuntimeCancelVsReapRace(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		MaxThreads: 2, BagSize: 128,
		LeaseTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	var admitted, cancelled, wedged atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2862933555777941757 + 3037000493))
			for i := 0; i < rounds; i++ {
				// Tiny, jittered timeouts: many fire exactly while a baton
				// is being handed over — the race under test.
				ctx, cancel := context.WithTimeout(context.Background(),
					time.Duration(rng.Intn(1500))*time.Microsecond)
				l, err := rt.AcquireCtx(ctx)
				cancel()
				if err != nil {
					cancelled.Add(1)
					continue
				}
				admitted.Add(1)
				switch i % 3 {
				case 0: // clean, brief hold
					set.Insert(l, uint64(rng.Intn(31))+1)
					l.Release()
				case 1: // wedge: the watchdog must reap it to free the slot
					wedged.Add(1)
					// Lease deliberately leaked to the reaper.
				default: // hold across the reap window, then release late
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					l.Release()
				}
			}
		}(w)
	}
	wg.Wait()

	// Every wedged holder must eventually be reaped (reaps can exceed the
	// wedge count: slow case-2 holders crossing their deadline are reaped
	// too, and their late Release is the counted no-op — by design).
	if !waitUntil(func() bool { return rt.Snapshot(0).ReapedLeases >= wedged.Load() }) {
		t.Fatalf("reaps stalled: %d reaped of %d wedged", rt.Snapshot(0).ReapedLeases, wedged.Load())
	}

	// The verdict: after the storm, patient waiters get every slot. A lost
	// baton would leave AcquireCtx hanging here until the timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	held := make([]*nbr.Lease, rt.MaxThreads())
	for i := range held {
		if held[i], err = rt.AcquireCtx(ctx); err != nil {
			t.Fatalf("admission chain broken after cancel/reap storm: slot %d: %v", i, err)
		}
		held[i].SetDeadline(time.Time{}) // don't reap the verdict holders
	}
	if w := rt.Snapshot(0).Waiters; w != 0 {
		t.Fatalf("waiter queue not empty after storm: %d", w)
	}
	for _, l := range held {
		l.Release()
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Retired != st.Freed {
		t.Fatalf("storm leaked records: retired %d != freed %d", st.Retired, st.Freed)
	}
	snap := rt.Snapshot(0)
	t.Logf("storm: %d admitted, %d cancelled, %d wedged, %d reaped, %d zombie releases",
		admitted.Load(), cancelled.Load(), wedged.Load(), snap.ReapedLeases, snap.RevokedReleases)
}

// BenchmarkLeaseSession times one Runtime.With envelope — AcquireCtx, a
// single Contains on a 64-key lazylist, Release — from one goroutine, with
// the watchdog unarmed (LeaseTimeout=0) and armed (LeaseTimeout=1s). The
// difference is what an armed watchdog charges every lease: a runtime timer
// and its function started at acquire, the timer stopped at release.
func BenchmarkLeaseSession(b *testing.B) {
	for _, timeout := range []time.Duration{0, time.Second} {
		b.Run("LeaseTimeout="+timeout.String(), func(b *testing.B) {
			rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 4, LeaseTimeout: timeout})
			if err != nil {
				b.Fatal(err)
			}
			set, err := rt.NewSet("lazylist")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if err := rt.With(ctx, func(l *nbr.Lease) error {
				for k := uint64(1); k <= 64; k++ {
					set.Insert(l, k)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := uint64(i%64) + 1
				if err := rt.With(ctx, func(l *nbr.Lease) error {
					if !set.Contains(l, key) {
						return errors.New("prefilled key missing")
					}
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
