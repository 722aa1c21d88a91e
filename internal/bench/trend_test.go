package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func trendSnap(mops, scanNs, burstNs float64, scanAllocs int64) Snapshot {
	return Snapshot{
		Schema: SnapshotSchema,
		Workloads: []WorkloadPoint{{
			DS: "dgt", Scheme: "nbr+", Threads: 8, KeyRange: 1000,
			Mops: mops, PeakMB: 1, P99us: 10,
		}},
		ScanCost: []ScanCostPoint{{
			Threads: 8, Slots: 4, Entries: 32, Probes: 1024,
			NsPerScan: scanNs, AllocsPerOp: scanAllocs,
		}},
		FreeBurst: []FreeBurstPoint{{
			Shards: 4, Goroutines: 8, Burst: 256, NsPerOp: burstNs,
		}},
	}
}

func TestCompareSnapshotsFlagsRegressions(t *testing.T) {
	prev := trendSnap(2.0, 1000, 100, 0)
	next := trendSnap(1.5, 1200, 95, 0) // mops -25%, scan +20%, burst improves
	deltas := CompareSnapshots(prev, next, 10)
	regs := Regressions(deltas)
	if len(regs) != 2 {
		t.Fatalf("flagged %d regressions, want 2 (mops drop, scan cost): %v", len(regs), regs)
	}
	byMetric := map[string]bool{}
	for _, r := range regs {
		byMetric[r.Metric] = true
	}
	if !byMetric["mops"] || !byMetric["ns_per_scan"] {
		t.Fatalf("wrong regressions flagged: %v", regs)
	}
}

func TestCompareSnapshotsWithinThreshold(t *testing.T) {
	prev := trendSnap(2.0, 1000, 100, 0)
	next := trendSnap(1.9, 1050, 104, 0) // all within 10%
	if regs := Regressions(CompareSnapshots(prev, next, 10)); len(regs) != 0 {
		t.Fatalf("noise flagged as regression: %v", regs)
	}
}

func TestCompareSnapshotsScanAllocsAlwaysFlag(t *testing.T) {
	prev := trendSnap(2.0, 1000, 100, 0)
	next := trendSnap(2.0, 1000, 100, 3) // scan started allocating
	regs := Regressions(CompareSnapshots(prev, next, 10))
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("allocating scan not flagged: %v", regs)
	}
	// Fewer allocations than before is an improvement, not a regression.
	if regs := Regressions(CompareSnapshots(next, prev, 10)); len(regs) != 0 {
		t.Fatalf("alloc improvement flagged: %v", regs)
	}
	// Persistent allocations are reported (so the trend is visible) but do
	// not re-flag a regression on every subsequent diff.
	if regs := Regressions(CompareSnapshots(next, next, 10)); len(regs) != 0 {
		t.Fatalf("steady-state allocations re-flagged: %v", regs)
	}
}

func TestCompareSnapshotsImprovementNotFlagged(t *testing.T) {
	prev := trendSnap(1.0, 2000, 200, 0)
	next := trendSnap(2.0, 1000, 100, 0)
	if regs := Regressions(CompareSnapshots(prev, next, 10)); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %v", regs)
	}
}

func TestCompareSnapshotsHostShapeMismatchUntrusted(t *testing.T) {
	prev := trendSnap(2.0, 1000, 100, 0)
	prev.GOMAXPROCS, prev.GOARCH = 8, "amd64"
	next := trendSnap(1.0, 2000, 200, 0) // huge worsening, wrong machine
	next.GOMAXPROCS, next.GOARCH = 1, "amd64"

	if msg := HostShapeMismatch(prev, next); msg == "" {
		t.Fatal("gomaxprocs 8 → 1 not reported as a host-shape mismatch")
	}
	if msg := HostShapeMismatch(prev, prev); msg != "" {
		t.Fatalf("same shape reported as mismatch: %q", msg)
	}

	deltas := CompareSnapshots(prev, next, 10)
	if len(deltas) == 0 {
		t.Fatal("mismatched snapshots produced no deltas at all")
	}
	for _, d := range deltas {
		if !d.Untrusted {
			t.Fatalf("delta across host shapes not marked untrusted: %v", d)
		}
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("untrusted deltas flagged as regressions: %v", regs)
	}

	// goarch alone also breaks comparability.
	arm := prev
	arm.GOARCH = "arm64"
	if msg := HostShapeMismatch(prev, arm); msg == "" {
		t.Fatal("goarch change not reported as a host-shape mismatch")
	}

	// The flat-scratch invariant is host-independent: a scan that starts
	// allocating stays flagged even across host shapes.
	alloc := trendSnap(2.0, 1000, 100, 5)
	alloc.GOMAXPROCS = 1
	regs := Regressions(CompareSnapshots(prev, alloc, 10))
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("allocating scan suppressed by host-shape mismatch: %v", regs)
	}
}

// trendSnapV5 extends the synthetic snapshot with the schema v5 cells: an
// interleaved runtime cell carrying the dispatch-per-burst amortization and
// a width-comparison cell carrying the declared-vs-Runtime entries gap.
func trendSnapV5(dispatchPerBurst float64, runtimeEntries int) Snapshot {
	s := trendSnap(2.0, 1000, 100, 0)
	s.Runtime = []RuntimePoint{{
		Structures: "lazylist+harris+dgt", Scheme: "nbr+", Slots: 8, Workers: 12,
		Mops: 1.0, Sessions: 100, Drained: true,
		Interleaved: true, HubBursts: 1000,
		HubDispatches: uint64(dispatchPerBurst * 1000), DispatchPerBurst: dispatchPerBurst,
		ScanEntries: 24,
	}}
	s.Widths = []WidthPoint{{
		DS: "lazylist", Threads: 8,
		DeclaredEntries: 16, RuntimeEntries: runtimeEntries,
		DeclaredNsPerScan: 500, RuntimeNsScan: 500 * float64(runtimeEntries) / 16,
	}}
	return s
}

func TestCompareSnapshotsV5DispatchPerBurst(t *testing.T) {
	prev := trendSnapV5(1.1, 16)
	// Amortization lost: one dispatch per record instead of ~one per burst.
	next := trendSnapV5(30.0, 16)
	regs := Regressions(CompareSnapshots(prev, next, 10))
	found := false
	for _, r := range regs {
		if r.Metric == "disp_burst" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dispatch-per-burst blowup not flagged: %v", regs)
	}
	// Parity held: nothing flagged.
	if regs := Regressions(CompareSnapshots(prev, trendSnapV5(1.1, 16), 10)); len(regs) != 0 {
		t.Fatalf("steady amortization flagged: %v", regs)
	}
	// Host-independence: the counter ratio stays flagged across host shapes.
	other := trendSnapV5(30.0, 16)
	other.GOMAXPROCS = prev.GOMAXPROCS + 4
	regs = Regressions(CompareSnapshots(prev, other, 10))
	found = false
	for _, r := range regs {
		if r.Metric == "disp_burst" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dispatch-per-burst regression suppressed by host-shape mismatch: %v", regs)
	}
}

func TestCompareSnapshotsV5WidthGapAlwaysFlagged(t *testing.T) {
	closed := trendSnapV5(1.1, 16)
	reopened := trendSnapV5(1.1, 32) // runtime scanning wider than the domain
	reopened.GOMAXPROCS = closed.GOMAXPROCS + 4

	regs := Regressions(CompareSnapshots(closed, reopened, 10))
	found := false
	for _, r := range regs {
		if r.Metric == "width_gap" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reopened width gap not flagged despite host-shape mismatch: %v", regs)
	}

	// A closed gap is never flagged, and closing a gap is an improvement.
	if regs := Regressions(CompareSnapshots(closed, closed, 10)); len(regs) != 0 {
		t.Fatalf("closed width gap flagged: %v", regs)
	}
	sameHost := trendSnapV5(1.1, 16)
	if regs := Regressions(CompareSnapshots(trendSnapV5(1.1, 32), sameHost, 10)); len(regs) != 0 {
		t.Fatalf("gap closing flagged as regression: %v", regs)
	}
}

func TestReadSnapshotRoundTripAndV1(t *testing.T) {
	// The committed BENCH_1.json is schema v1; ReadSnapshot must load it and
	// comparisons against a v2 snapshot must work on the shared fields.
	root := filepath.Join("..", "..")
	v1, err := ReadSnapshot(filepath.Join(root, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v1.Workloads) == 0 || len(v1.ScanCost) == 0 {
		t.Fatalf("BENCH_1.json loaded empty: %+v", v1)
	}
	deltas := CompareSnapshots(v1, v1, 10)
	if len(deltas) == 0 {
		t.Fatal("self-comparison produced no comparable cells")
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("self-comparison flagged regressions: %v", regs)
	}
}

func TestReadSnapshotRejectsForeignJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	if err := os.WriteFile(path, []byte(`{"schema":"something-else"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("foreign schema accepted")
	}
}

// trendSnapV6 extends the synthetic snapshot with the schema v6 recovery
// columns: one ordinary runtime cell and one stall-injection cell, each
// carrying a reap count.
func trendSnapV6(quietReaps, stallReaps uint64) Snapshot {
	s := trendSnap(2.0, 1000, 100, 0)
	s.Runtime = []RuntimePoint{
		{
			Structures: "lazylist+harris+dgt", Scheme: "nbr+", Slots: 8, Workers: 12,
			Mops: 1.0, Sessions: 100, Drained: true,
			Reaped: quietReaps, RevokedReleases: quietReaps,
		},
		{
			Structures: "lazylist+harris+dgt", Scheme: "nbr+", Slots: 8, Workers: 12,
			Mops: 0.9, Sessions: 100, Drained: true, Stall: true,
			Reaped: stallReaps, RevokedReleases: stallReaps, OrphansAdopted: 40,
		},
	}
	return s
}

func TestCompareSnapshotsV6ReapsFlaggedOnlyOffStall(t *testing.T) {
	prev := trendSnapV6(0, 120)
	// A reap appearing in the non-stall cell is the watchdog revoking a
	// healthy holder: always a regression, even across host shapes.
	next := trendSnapV6(3, 120)
	next.GOMAXPROCS = prev.GOMAXPROCS + 4
	regs := Regressions(CompareSnapshots(prev, next, 10))
	if len(regs) != 1 || regs[0].Metric != "reaped" {
		t.Fatalf("spurious reap in a non-stall cell not flagged: %v", regs)
	}
	if !strings.Contains(regs[0].Cell, "runtime") || strings.Contains(regs[0].Cell, "stall") {
		t.Fatalf("reap regression flagged on the wrong cell: %v", regs[0])
	}

	// Reap-count swings inside the stall cell are the injection working, not
	// a regression; steady state flags nothing.
	if regs := Regressions(CompareSnapshots(prev, trendSnapV6(0, 400), 10)); len(regs) != 0 {
		t.Fatalf("stall-cell reap growth flagged: %v", regs)
	}
	if regs := Regressions(CompareSnapshots(prev, prev, 10)); len(regs) != 0 {
		t.Fatalf("steady state flagged: %v", regs)
	}
}

// TestCompareSnapshotsRuntimeTimingsUntrustedAcrossV9 pins the v8/v9
// boundary: the runtime cells changed what they measure (harness twin →
// public nbr.Runtime), so across it their timings are shown untrusted and
// never flagged, while their counters — and every other cell — compare as
// before. Within one side of the boundary nothing changes.
func TestCompareSnapshotsRuntimeTimingsUntrustedAcrossV9(t *testing.T) {
	prev := trendSnapV5(1.0, 16)
	prev.Schema = "nbr-perf-snapshot/v8"
	next := trendSnapV5(3.0, 16) // amortization lost: a counter regression
	next.Runtime[0].Mops = 0.4   // and a throughput collapse
	next.Workloads[0].Mops = 1.0 // and a workload-cell collapse

	flagged := map[string]bool{}
	for _, d := range CompareSnapshots(prev, next, 10) {
		runtimeTiming := strings.HasPrefix(d.Cell, "runtime") && (d.Metric == "mops" || d.Metric == "sessions")
		if d.Untrusted != runtimeTiming {
			t.Errorf("across v8→v9 %q/%s untrusted=%v, want %v", d.Cell, d.Metric, d.Untrusted, runtimeTiming)
		}
		if d.Regression {
			flagged[strings.Fields(d.Cell)[0]+"/"+d.Metric] = true
		}
	}
	if flagged["runtime/mops"] || !flagged["runtime/disp_burst"] || !flagged["workload/mops"] {
		t.Fatalf("across v8→v9 flagged %v; want the runtime counter and the workload timing, not the runtime timing", flagged)
	}

	prev.Schema = SnapshotSchema // same side of the boundary: the timing is trusted again
	if regs := Regressions(CompareSnapshots(prev, next, 10)); len(regs) != 3 {
		t.Fatalf("within v9 want mops flagged on both cells plus disp_burst, got %v", regs)
	}
}
