package ibr_test

import (
	"testing"

	"nbr/internal/smr/era"
)

// TestBoundTightWithoutPinning pins the exact pinned-set declaration: with
// no reserved intervals, the bound is the static buffered term alone — the
// N·EraFreq era-slack heuristic is gone. The churn also guards against a
// self-certifying bound: a sweep that wrongly keeps freeable records would
// raise pinnedPeak above the static term and fail here (see the he variant).
func TestBoundTightWithoutPinning(t *testing.T) {
	const threads, threshold = 4, 32
	pool, s := setup(threads, era.Config{Threshold: threshold, EraFreq: 1})
	want := threads * (2*threshold + 2)
	if got := s.GarbageBound(); got != want {
		t.Fatalf("unpinned bound = %d, want static buffered term %d", got, want)
	}
	g := s.Guard(0)
	for i := 0; i < 10*threshold; i++ {
		g.Retire(alloc(pool, s, 0))
	}
	if got := s.GarbageBound(); got != want {
		t.Fatalf("bound moved to %d under unpinned churn (a sweep kept freeable records), want %d", got, want)
	}
	if garbage := s.Stats().Garbage(); garbage >= uint64(threshold) {
		t.Fatalf("unpinned churn left %d unreclaimed records", garbage)
	}
}

// TestBoundTracksPinnedSet pins the dynamic half: a stalled reservation
// interval pins overlapping lifetimes, and the declared bound must grow
// with the measured survivor set while never being outrun by the garbage
// it covers.
func TestBoundTracksPinnedSet(t *testing.T) {
	const threads, threshold = 2, 16
	pool, s := setup(threads, era.Config{Threshold: threshold, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	static := s.GarbageBound()

	g1.BeginOp() // interval pinned at the current era; g1 stalls
	// Retire records born inside g1's interval: all pinned. Later eras move
	// past the frozen interval, so records born afterwards are sweepable —
	// the bound must cover the pinned prefix exactly, not an era-slack
	// guess.
	const pinnedChurn = 4 * threshold
	for i := 0; i < pinnedChurn; i++ {
		g0.Retire(alloc(pool, s, 0))
		st := s.Stats()
		if bound := s.GarbageBound(); uint64(bound) < st.Garbage() {
			t.Fatalf("retire %d: garbage %d outran the pinned-set bound %d", i, st.Garbage(), bound)
		}
	}
	grown := s.GarbageBound()
	if grown <= static {
		t.Fatalf("bound did not grow with the pinned set: %d → %d", static, grown)
	}

	g1.EndOp()
	for i := 0; i < 2*threshold; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if after := s.GarbageBound(); after < grown {
		t.Fatalf("bound decreased %d → %d; GarbageBound must be monotone", grown, after)
	}
	st := s.Stats()
	if st.Garbage() > uint64(threshold)+1 {
		t.Fatalf("backlog not reclaimed after the interval emptied: garbage %d", st.Garbage())
	}
}
