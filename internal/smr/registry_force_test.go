package smr

import (
	"errors"
	"sync"
	"testing"
)

// fakeForcer stands in for a scheme's RoundForcer: each forced round is a
// bracketed no-op collection, exactly what Kernel.ForceRound produces.
type fakeForcer struct {
	r     *Registry
	mu    sync.Mutex
	calls int
}

func (f *fakeForcer) force() bool {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	f.r.BeginScan()
	f.r.EndScan()
	return true
}

// TestRegistryFallbackWithoutForcer pins the pre-forced-round behaviour the
// regression fixes: with no RoundForcer bound and churn outrunning scan
// rounds, the registry reuses the oldest quarantined slot on the no-scanner
// proof — safe, but the two-round guarantee lapses, which FallbackReuses
// now makes observable.
func TestRegistryFallbackWithoutForcer(t *testing.T) {
	r := NewRegistry(1)
	l, _ := r.Acquire()
	l.Release()
	// No rounds have completed: the quarantine head has not aged, no scan is
	// in flight, no forcer is bound → the fallback path must serve it.
	l2, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.FallbackReuses(); got != 1 {
		t.Fatalf("FallbackReuses = %d, want 1 (the un-aged head was served on the no-scanner proof)", got)
	}
	if r.ForcedRounds() != 0 {
		t.Fatalf("ForcedRounds = %d with no forcer bound", r.ForcedRounds())
	}
	l2.Release()
}

// TestRegistryForcedRoundsAgeQuarantine is the regression test for the
// quarantine fallback: with a RoundForcer bound, an Acquire that finds the
// quarantine head un-aged forces the missing rounds itself and never
// reaches the fallback — the round guarantee holds unconditionally, even
// with another scan mid-flight (the case that used to return
// ErrRegistryFull until the scan finished).
func TestRegistryForcedRoundsAgeQuarantine(t *testing.T) {
	r := NewRegistry(1)
	f := &fakeForcer{r: r}
	r.SetForceRound(f.force)

	l, _ := r.Acquire()
	l.Release()

	// Case 1: churn outran scans (no rounds since release, no scan in
	// flight). Previously the fallback served this; now forced rounds age
	// the head first.
	l2, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if r.FallbackReuses() != 0 {
		t.Fatalf("FallbackReuses = %d, want 0 (forced rounds must preempt the fallback)", r.FallbackReuses())
	}
	if got := r.ForcedRounds(); got != quarantineRounds {
		t.Fatalf("ForcedRounds = %d, want %d", got, quarantineRounds)
	}
	l2.Release()

	// Case 2: a scan is mid-flight and the head is freshly quarantined —
	// the configuration that used to refuse with ErrRegistryFull outright.
	// Forced rounds complete independently of the stalled scan, so the
	// head ages and the acquire succeeds without the fallback.
	r.BeginScan()
	l3, err := r.Acquire()
	if err != nil {
		t.Fatalf("acquire under a live scanner with a forcer bound: %v", err)
	}
	if r.FallbackReuses() != 0 {
		t.Fatalf("FallbackReuses = %d, want 0", r.FallbackReuses())
	}
	r.EndScan()
	l3.Release()
}

// TestRegistryForcerFailureFallsBack pins the "only fall back if ForceRound
// cannot complete" ordering: a forcer that reports failure (e.g. fixed-N
// mode) must not mask the no-scanner fallback, and the scan-in-flight
// refusal must survive it.
func TestRegistryForcerFailureFallsBack(t *testing.T) {
	r := NewRegistry(1)
	r.SetForceRound(func() bool { return false })

	l, _ := r.Acquire()
	l.Release()
	// Forcer fails, but no scan is in flight: the fallback serves the head.
	l2, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if r.FallbackReuses() != 1 {
		t.Fatalf("FallbackReuses = %d, want 1", r.FallbackReuses())
	}
	l2.Release()

	// Forcer fails and a scan is in flight: nothing can prove the head safe.
	r.BeginScan()
	if _, err := r.Acquire(); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("want ErrRegistryFull, got %v", err)
	}
	r.EndScan()
}
