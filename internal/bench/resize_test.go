package bench

import (
	"testing"

	"nbr/internal/catalog"
)

// TestResizeBurstSegmentAmortization pins the fast-path claim the snapshot
// asserts: on an insert-only burst whose retire stream is whole bucket
// arrays, retiring each array as one segment must keep the scheme-side
// stamps and scans per retired record at least 8× below the floor of 1.0 that
// retiring every cell individually pays (one stamp each). Counter ratios only
// — no timing.
func TestResizeBurstSegmentAmortization(t *testing.T) {
	cfg := catalog.DefaultSchemeConfig()
	// The same fixed threshold the snapshot cell uses: arrays lighter than
	// it share a sweep, so the scans are not one per array. Every array
	// lands whole whatever the threshold (DESIGN.md §16), one stamp each.
	cfg.Threshold = 512
	r, err := RunResizeBurst(ResizeBurstWorkload{
		Scheme: "ibr", Threads: 4, KeysPerThread: 800, Cfg: cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resizes < 4 {
		t.Fatalf("burst drove only %d resizes", r.Resizes)
	}
	if r.Stats.Segments == 0 || r.Stats.SegRecords == 0 {
		t.Fatalf("burst retired no segments: %+v", r.Stats)
	}
	if cost := r.Stats.StampsPerRecord() + r.Stats.ScansPerRecord(); cost <= 0 {
		t.Fatalf("burst recorded no per-record cost (retired %d)", r.Stats.Retired)
	}
	// The bound, the drain and stamps+scans ≤ 1/8 per retired record, as one
	// method: the contract `nbrbench -assert-bound` blocks on.
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("cell breaks its own invariants: %q", v)
	}
}
