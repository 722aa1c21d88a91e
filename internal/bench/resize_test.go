package bench

import (
	"testing"

	"nbr/internal/catalog"
)

// TestResizeBurstSegmentAmortization pins the fast-path claim the snapshot
// asserts: on the same insert-only burst, under the same grace-period scheme,
// retiring old bucket arrays as segments must cut the scheme-side stamps and
// scans per retired record by at least 8× versus dissolving each array and
// retiring its cells individually. Counter ratios only — no timing.
func TestResizeBurstSegmentAmortization(t *testing.T) {
	cfg := catalog.DefaultSchemeConfig()
	// The same fixed threshold the snapshot cell uses: arrays lighter than
	// it share a sweep, so the scans are not one per array. Every array
	// lands whole whatever the threshold (DESIGN.md §16), one stamp each.
	cfg.Threshold = 512
	base := ResizeBurstWorkload{
		Scheme: "ibr", Threads: 4, KeysPerThread: 800, Cfg: cfg,
	}

	seg := base
	run := func(w ResizeBurstWorkload) ResizeBurstResult {
		t.Helper()
		r, err := RunResizeBurst(w)
		if err != nil {
			t.Fatal(err)
		}
		if r.Resizes < 4 {
			t.Fatalf("burst drove only %d resizes", r.Resizes)
		}
		if r.BoundExceeded() {
			t.Fatalf("garbage peak %d > declared bound %d", r.GarbagePeak, r.Bound)
		}
		if !r.Drained {
			t.Fatalf("drain stalled: retired %d, freed %d", r.Stats.Retired, r.Stats.Freed)
		}
		// The same contract as one method, segment amortization included.
		if v := r.Violations(); len(v) != 0 {
			t.Fatalf("cell breaks its own invariants: %q", v)
		}
		return r
	}
	sr := run(seg)
	if sr.Stats.Segments == 0 || sr.Stats.SegRecords == 0 {
		t.Fatalf("segment mode retired no segments: %+v", sr.Stats)
	}

	pn := base
	pn.PerNode = true
	pr := run(pn)
	if pr.Stats.Segments != 0 {
		t.Fatalf("per-node mode retired %d segments", pr.Stats.Segments)
	}
	if spr := pr.Stats.StampsPerRecord(); spr != 1.0 {
		t.Fatalf("per-node stamps/record = %v, want exactly 1.0 (every cell stamped)", spr)
	}

	segCost := sr.Stats.StampsPerRecord() + sr.Stats.ScansPerRecord()
	pnCost := pr.Stats.StampsPerRecord() + pr.Stats.ScansPerRecord()
	if segCost <= 0 {
		t.Fatalf("segment mode recorded no per-record cost (retired %d)", sr.Stats.Retired)
	}
	if ratio := pnCost / segCost; ratio < 8 {
		t.Fatalf("segment retirement amortized stamps+scans only %.1fx (per-node %.4f, segment %.4f); want >= 8x",
			ratio, pnCost, segCost)
	}
}

// TestResizeBurstRejectsUnsafeBaseline pins the safety gate: the dissolve
// baseline skips per-cell protection, so schemes that rely on it must be
// refused, not run.
func TestResizeBurstRejectsUnsafeBaseline(t *testing.T) {
	for _, scheme := range []string{"nbr", "nbr+", "hp"} {
		_, err := RunResizeBurst(ResizeBurstWorkload{
			Scheme: scheme, Threads: 2, KeysPerThread: 100, PerNode: true,
			Cfg: catalog.DefaultSchemeConfig(),
		})
		if err == nil {
			t.Fatalf("per-node baseline under %s must be rejected", scheme)
		}
	}
}
