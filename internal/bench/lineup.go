package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"nbr"
	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// snapshotCell is one named row of the snapshot lineup: what to measure,
// stated as the driver's own workload type with only the fields that tell the
// rows apart (measure fills in the suite's fixed shape).
type snapshotCell struct {
	name string
	cell interface {
		// measure runs the cell at the given per-cell duration and scheme
		// knobs and appends the point it produced to its section of s.
		measure(s *Snapshot, d time.Duration, cfg catalog.SchemeConfig) error
	}
}

// snapshotThreads is fixed rather than host-scaled so snapshots from
// different machines chart one trajectory; 8 keeps the paper's
// oversubscribed regime (and its signal traffic) even on small containers.
const snapshotThreads = 8

// snapshotLineup is the fixed suite behind `nbrbench -snapshot`, one row per
// cell, in file order. Adding a cell is adding a row (DESIGN.md §5).
var snapshotLineup = []snapshotCell{
	// End-to-end workloads, 50i-50d: one tree and one list under the paper's
	// main baseline (DEBRA), the fence-heavy baseline (HP, list only per
	// Table 1 practice) and both NBR variants; and the subtree-unlinking
	// tree, whose merge path retires two nodes per RetireBatch, so its batch
	// histogram shows the seam working.
	{"workload dgt/debra", Workload{DS: "dgt", Scheme: "debra", KeyRange: 200_000}},
	{"workload dgt/nbr", Workload{DS: "dgt", Scheme: "nbr", KeyRange: 200_000}},
	{"workload dgt/nbr+", Workload{DS: "dgt", Scheme: "nbr+", KeyRange: 200_000}},
	{"workload lazylist/debra", Workload{DS: "lazylist", Scheme: "debra", KeyRange: 20_000}},
	{"workload lazylist/hp", Workload{DS: "lazylist", Scheme: "hp", KeyRange: 20_000}},
	{"workload lazylist/nbr+", Workload{DS: "lazylist", Scheme: "nbr+", KeyRange: 20_000}},
	{"workload abtree/nbr+", Workload{DS: "abtree", Scheme: "nbr+", KeyRange: 100_000}},
	// One stamping scheme, so a change to the era headers or the interval
	// schemes has a peak_mb and mops of its own.
	{"workload dgt/ibr", Workload{DS: "dgt", Scheme: "ibr", KeyRange: 200_000}},

	// Shared-runtime cells: one nbr.Runtime over three structures, workers
	// oversubscribing the slots, so the snapshot tracks per-session admission
	// and multi-owner routing cost. Each scheme also runs the adversarial
	// variant whose round-robin retire stream alternates owners perfectly —
	// its dispatch-per-burst is the hub's per-owner grouping under its worst
	// case: exactly one dispatch per structure. The stall cell wedges every stallEvery-th holder and has the
	// runtime's watchdog reap it mid-run: the bound and drain-to-zero
	// contracts must hold through holder deaths.
	{"runtime debra", RuntimeWorkload{Scheme: "debra"}},
	{"runtime debra interleaved", RuntimeWorkload{Scheme: "debra", Interleave: true}},
	{"runtime nbr+", RuntimeWorkload{Scheme: "nbr+"}},
	{"runtime nbr+ interleaved", RuntimeWorkload{Scheme: "nbr+", Interleave: true}},
	{"runtime nbr+ stall", RuntimeWorkload{Scheme: "nbr+", Stall: true}},

	// Resize-burst cells: the same insert-only storm, every old bucket array
	// retired as one segment, under the flagship NBR+ integration and under
	// IBR, whose per-record stamps are what the segment path collapses.
	{"resize nbr+/segment", ResizeBurstWorkload{Scheme: "nbr+"}},
	{"resize ibr/segment", ResizeBurstWorkload{Scheme: "ibr"}},

	// Width cells, for structures at both ends of the declared-reservation
	// range: the scan entries and ns/scan at the structure's declared widths
	// against what a Runtime hosting only that structure builds.
	{"width lazylist", widthCell("lazylist")},
	{"width dgt", widthCell("dgt")},

	// Reservation-scan cost at N threads × R slots.
	{"scan N=2 R=4", scanCell{2, 4}},
	{"scan N=8 R=4", scanCell{8, 4}},
	{"scan N=32 R=4", scanCell{32, 4}},
	{"scan N=64 R=8", scanCell{64, 8}},
	{"scan N=192 R=4", scanCell{192, 4}},

	// Free-burst allocator contention across shard counts.
	{"burst shards=1", burstCell(1)},
	{"burst shards=2", burstCell(2)},
	{"burst shards=4", burstCell(4)},
	{"burst shards=8", burstCell(8)},
}

func (w Workload) measure(s *Snapshot, d time.Duration, cfg catalog.SchemeConfig) error {
	w.Threads, w.InsPct, w.DelPct, w.Duration, w.Cfg = snapshotThreads, 50, 50, d, cfg
	r, err := Run(w)
	s.Workloads = append(s.Workloads, r.WorkloadPoint)
	return err
}

func (w RuntimeWorkload) measure(s *Snapshot, d time.Duration, cfg catalog.SchemeConfig) error {
	w.Structures = []string{"lazylist", "harris", "dgt"}
	w.Slots, w.Workers = snapshotThreads, snapshotThreads+snapshotThreads/2
	w.KeyRange, w.SessionOps, w.Duration, w.Cfg = 20_000, 64, d, cfg
	r, err := RunRuntime(w)
	s.Runtime = append(s.Runtime, r.RuntimePoint)
	return err
}

func (w ResizeBurstWorkload) measure(s *Snapshot, _ time.Duration, cfg catalog.SchemeConfig) error {
	// A fixed 512-record threshold regardless of the sweep config: arrays
	// lighter than it share a sweep, so the segment mode's scans are not one
	// per array; heavier ones land whole one append past it.
	cfg.Threshold = 512
	w.Threads, w.KeysPerThread, w.Cfg = snapshotThreads, 1500, cfg
	r, err := RunResizeBurst(w)
	s.ResizeBurst = append(s.ResizeBurst, r.ResizeBurstPoint)
	return err
}

type widthCell string // the structure

func (ds widthCell) measure(s *Snapshot, _ time.Duration, _ catalog.SchemeConfig) error {
	wp, err := measureWidths(string(ds), snapshotThreads)
	s.Widths = append(s.Widths, wp)
	return err
}

type scanCell struct{ threads, slots int }

func (c scanCell) measure(s *Snapshot, _ time.Duration, _ catalog.SchemeConfig) error {
	s.ScanCost = append(s.ScanCost, measureScanCost(c.threads, c.slots))
	return nil
}

type burstCell int // the shard count

func (shards burstCell) measure(s *Snapshot, _ time.Duration, _ catalog.SchemeConfig) error {
	s.FreeBurst = append(s.FreeBurst, measureFreeBurst(int(shards), 8, 256))
	return nil
}

// WriteSnapshot runs the snapshot lineup and writes the JSON to path. With
// assertBound it additionally fails when any point breaks one of its
// invariants (the `nbrbench -assert-bound` mode: Snapshot.Violations) — the
// snapshot is still written so the violating numbers are inspectable.
func WriteSnapshot(path string, duration time.Duration, cfg catalog.SchemeConfig, assertBound bool) error {
	snap := Snapshot{
		Schema: SnapshotSchema, CreatedAt: time.Now().UTC(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, c := range snapshotLineup {
		if err := c.cell.measure(&snap, duration, cfg); err != nil {
			return fmt.Errorf("snapshot cell %s: %w", c.name, err)
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if v := snap.Violations(); assertBound && len(v) > 0 {
		return fmt.Errorf("garbage-bound contract violated in %d cell(s):\n  %s", len(v), strings.Join(v, "\n  "))
	}
	return nil
}

// measureScanCost times the reclaim-path scan primitive: snapshot N·R
// announcement slots into the flat sorted scratch, then probe it once per
// bag record, exactly the work reclaimFreeable does per reclamation. Since
// the dynamic-membership refactor the collection walks the active mask, so
// the measurement runs with every slot active — the saturated fixed-N case
// whose cost the mask must not tax.
func measureScanCost(threads, slots int) ScanCostPoint {
	const probes = 1024
	announce := make([]smr.Pad64, threads*slots)
	for i := range announce {
		announce[i].Store(uint64(2*i + 2))
	}
	active := sigsim.FullActiveSet(threads)
	set := smr.NewScanSet(len(announce))
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set.CollectRows(announce, slots, active)
			for k := 0; k < probes; k++ {
				set.Contains(mem.Ptr(2*k + 1))
			}
		}
	})
	return ScanCostPoint{
		Threads: threads, Slots: slots, Entries: len(announce), Probes: probes,
		NsPerScan: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(),
	}
}

// measureWidths builds one width-comparison cell from real objects: the
// declared side is the reservation width the structure's own instance
// declares, the Runtime side the width of a NewRuntime hosting that structure
// plus any others attached before its first lease (none in the snapshot,
// where the gap must be 0). Scan cost is measured at each side's threads ×
// reservations entries.
func measureWidths(name string, threads int, others ...string) (WidthPoint, error) {
	inst, err := catalog.NewDS(name, threads)
	if err != nil {
		return WidthPoint{}, err
	}
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: threads})
	if err != nil {
		return WidthPoint{}, err
	}
	for _, n := range append([]string{name}, others...) {
		if _, err := rt.NewSet(n); err != nil {
			return WidthPoint{}, err
		}
	}
	_, runtimeRes := rt.Widths()
	declared := measureScanCost(threads, inst.Req.Reservations)
	shared := measureScanCost(threads, runtimeRes)
	return WidthPoint{
		DS: name, Threads: threads, DeclaredEntries: declared.Entries, RuntimeEntries: shared.Entries,
		DeclaredNsPerScan: declared.NsPerScan, RuntimeNsScan: shared.NsPerScan,
	}, nil
}

type burstRec struct{ _ [4]uint64 }

// measureFreeBurst times concurrent alloc-burst/FreeBatch cycles against a
// pool with the given shard count; ns/op is one alloc+free pair. The loop
// itself is mem.BurstChurn, shared with BenchmarkFreeBurst so snapshots and
// `go test -bench FreeBurst` measure the same thing.
func measureFreeBurst(shards, goroutines, burst int) FreeBurstPoint {
	r := testing.Benchmark(func(b *testing.B) {
		p := mem.NewPool[burstRec](mem.Config{MaxThreads: goroutines, CacheSize: 64, Shards: shards})
		b.ResetTimer()
		mem.BurstChurn(p, goroutines, burst, b.N)
	})
	ns := float64(r.NsPerOp())
	point := FreeBurstPoint{Shards: shards, Goroutines: goroutines, Burst: burst, NsPerOp: ns}
	if ns > 0 {
		point.MopsPerSec = 1e3 / ns
	}
	return point
}
