package bench

import (
	"strings"
	"testing"
	"time"

	"nbr/internal/catalog"
)

// TestRunRuntimeCell pins the shared-runtime measurement cell: it must
// complete sessions, hold the aggregated bound, and drain the shared bags to
// Retired == Freed.
func TestRunRuntimeCell(t *testing.T) {
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 256
	r, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"lazylist", "harris", "dgt"},
		Scheme:     "nbr+",
		Slots:      4,
		Workers:    6,
		KeyRange:   512,
		SessionOps: 32,
		Duration:   150 * time.Millisecond,
		Cfg:        cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Sessions == 0 {
		t.Fatalf("no progress: ops=%d sessions=%d", r.Ops, r.Sessions)
	}
	if r.BoundExceeded() {
		t.Fatalf("aggregated bound violated: peak %d > bound %d", r.GarbagePeak, r.Bound)
	}
	if !r.Drained {
		t.Fatalf("shared bags leaked: retired %d != freed %d", r.Stats.Retired, r.Stats.Freed)
	}
	if r.Reaped != 0 || r.RevokedReleases != 0 {
		t.Fatalf("a cell with no stall injection reaped %d holders (%d zombie releases): a healthy holder was revoked",
			r.Reaped, r.RevokedReleases)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("healthy cell breaks its own invariants: %q", v)
	}
}

// TestRunRuntimeStallCell pins the holder-death cell: wedged holders are
// reaped by the runtime's own watchdog, every one of them later issues its
// zombie Release (a counted no-op), and the bound and drain-to-zero hold
// through the deaths.
func TestRunRuntimeStallCell(t *testing.T) {
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 256
	r, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"lazylist", "harris", "dgt"},
		Scheme:     "nbr+",
		Slots:      4,
		Workers:    6,
		KeyRange:   512,
		SessionOps: 32,
		Duration:   150 * time.Millisecond,
		Cfg:        cfg,
		Stall:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Reaped == 0 {
		t.Fatal("stall injection reaped nothing: the watchdog never revoked a wedged holder")
	}
	if r.RevokedReleases != r.Reaped {
		t.Fatalf("%d holders reaped but %d zombie releases counted", r.Reaped, r.RevokedReleases)
	}
	if r.BoundExceeded() {
		t.Fatalf("aggregated bound violated through holder deaths: peak %d > bound %d", r.GarbagePeak, r.Bound)
	}
	if !r.Drained {
		t.Fatalf("holder deaths leaked records: retired %d != freed %d", r.Stats.Retired, r.Stats.Freed)
	}
	if v := r.Violations(); len(v) != 0 {
		t.Fatalf("stall cell breaks its own invariants: %q", v)
	}
}

// TestWidthCellGapCanOpen pins both sides of the width cell to real objects:
// a runtime hosting exactly the structure builds at its declared widths (gap
// 0, the recorded invariant), and one that co-attaches a wider kind scans
// wider rows than the structure declares — the condition nbrtrend always
// flags.
func TestWidthCellGapCanOpen(t *testing.T) {
	same, err := measureWidths("lazylist", 4)
	if err != nil {
		t.Fatal(err)
	}
	if same.RuntimeEntries != same.DeclaredEntries {
		t.Fatalf("runtime hosting only lazylist scans %d entries, lazylist declares %d; want no gap",
			same.RuntimeEntries, same.DeclaredEntries)
	}
	wide, err := measureWidths("lazylist", 4, "hashmap")
	if err != nil {
		t.Fatal(err)
	}
	if wide.RuntimeEntries <= wide.DeclaredEntries {
		t.Fatalf("runtime co-attaching hashmap scans %d entries, lazylist declares %d; the gap must open",
			wide.RuntimeEntries, wide.DeclaredEntries)
	}
}

// TestRunRuntimeRejectsTable1 pins the cell's gatekeeping.
func TestRunRuntimeRejectsTable1(t *testing.T) {
	_, err := RunRuntime(RuntimeWorkload{
		Structures: []string{"abtree"},
		Scheme:     "hp",
		Slots:      2, Workers: 2, KeyRange: 64, SessionOps: 8,
		Duration: 10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "Table 1") {
		t.Fatalf("abtree under hp must be rejected by Table 1, got %v", err)
	}
}
