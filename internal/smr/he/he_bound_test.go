package he_test

import (
	"testing"

	"nbr/internal/smr/era"
)

// TestBoundTightWithoutPinning pins the exact pinned-set declaration: with
// no announcements pinning anything, the bound is the static buffered term
// alone — no N·EraFreq era slack inflating it (the PR-3 heuristic this
// replaced charged n·n·EraFreq on top). The churn matters: because the
// measured term grows with actual sweep survivors, this test is also the
// guard against a self-certifying bound — a sweep that wrongly keeps
// freeable records would raise pinnedPeak, push the bound above the static
// term, and fail here instead of silently blessing the leak.
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

// TestBoundTracksPinnedSet pins the dynamic half: a stalled announcement
// makes sweeps keep records, and the declared bound must grow with the
// measured survivor set — and never be outrun by it (the contract the
// harness samples).
func TestBoundTracksPinnedSet(t *testing.T) {
	const threads, threshold = 2, 16
	pool, s := setup(threads, era.Config{Threshold: threshold, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	static := s.GarbageBound()

	// g1 stalls with an announced era: records whose lifetime contains it
	// (those born at or before the announcement) survive every sweep, so
	// the measured pinned set becomes non-empty and the bound must grow to
	// carry it.
	anchor := alloc(pool, s, 1)
	g1.BeginOp()
	g1.Protect(0, anchor)

	const churn = 10 * threshold
	for i := 0; i < churn; i++ {
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

	// Bound monotonicity across unpinning: the announcement clears, sweeps
	// free the backlog, and the bound must not decrease (the watermark
	// contract that lets samplers read garbage before bound).
	g1.EndOp()
	for i := 0; i < 2*threshold; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if after := s.GarbageBound(); after < grown {
		t.Fatalf("bound decreased %d → %d; GarbageBound must be monotone", grown, after)
	}
	st := s.Stats()
	if st.Garbage() > uint64(threshold)+1 {
		t.Fatalf("backlog not reclaimed after unpinning: garbage %d", st.Garbage())
	}
}
