package bench

import (
	"fmt"
	"strings"
	"time"

	"nbr/internal/smr"
)

// Snapshot is the machine-readable perf record written by
// `nbrbench -snapshot BENCH_<n>.json`. Committing one per PR gives later
// sessions a trajectory to diff against: the end-to-end workload cells catch
// whole-system regressions, while the reservation-scan and free-burst
// microbenchmarks isolate the two reclaim-path costs this harness tracks
// (scan work per N·R and allocator contention per burst).
type Snapshot struct {
	Schema     string    `json:"schema"`
	CreatedAt  time.Time `json:"created_at"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	GOMAXPROCS int       `json:"gomaxprocs"`

	Workloads   []WorkloadPoint    `json:"workloads"`
	Runtime     []RuntimePoint     `json:"runtime,omitempty"`
	ResizeBurst []ResizeBurstPoint `json:"resize_burst,omitempty"`
	Widths      []WidthPoint       `json:"widths,omitempty"`
	ScanCost    []ScanCostPoint    `json:"reservation_scan"`
	FreeBurst   []FreeBurstPoint   `json:"free_burst"`
}

// SnapshotSchema names the snapshot layout: six sections, one point type
// each — end-to-end workload cells; shared-runtime cells measured on the
// public nbr.Runtime (mixed, adversarially interleaved, stall-injection);
// resize-burst cells; declared-widths-vs-Runtime width cells; and the
// reservation-scan and free-burst microbenchmarks. Files written under older schema numbers
// load as they are: a column they lack reads zero and is left out of the
// comparison. The one boundary that matters is v8/v9 — up to v8 the runtime
// cells came from a reconstruction inside the harness, so their timings do not
// compare across it (nbrtrend marks them untrusted); their counters do.
const SnapshotSchema = "nbr-perf-snapshot/v10"

// point is one snapshot row. Every point type says three things about itself,
// each exactly once (DESIGN.md §5): which cell it is, which of its columns
// nbrtrend compares and how each is judged, and which invariants it must hold
// on its own.
type point interface {
	key() string
	columns() []column
	// Violations lists the invariants the point breaks, one message each,
	// prefixed with the cell's key; nil on a healthy point. `nbrbench
	// -assert-bound` fails on them, nbrtrend reports them for the newer
	// snapshot of a pair, the unit tests call them on their own results.
	Violations() []string
}

// class is how a column's movement between two snapshots is judged.
type class int

const (
	// timing is wall-clock: flagged when it worsens past the threshold,
	// unless the two sides are not comparable (different host shape, or a
	// runtime cell across the v8/v9 boundary).
	timing class = iota
	// info is context (peak memory, tail latency, batch sizes, sample
	// counts): shown, never flagged — it swings with host load.
	info
	// ratio is a counter ratio: host-independent, so worsening past the
	// threshold is flagged on any pair of hosts.
	ratio
	// zero is a count that must stay zero: host-independent, flagged when it
	// leaves zero. (That it *is* non-zero is the point's own Violations.)
	zero
)

// column is one compared metric of a point.
type column struct {
	name  string
	v     float64
	up    bool // larger is worse
	class class
	// absent: the cell did not record this column (an older schema, a feature
	// that was off). A column is compared when both sides have it — a
	// must-stay-zero one when either does.
	absent bool
	// exact: never marked Untrusted, even across host shapes. Held by the two
	// counts (reaps, width gap) the trend report has always shown bare.
	exact bool
}

func col(name string, v float64, up bool, c class) column {
	return column{name: name, v: v, up: up, class: c}
}

func (c column) when(recorded bool) column { c.absent = !recorded; return c }

// points flattens the six sections, in file order.
func (s Snapshot) points() []point {
	out := section([]point(nil), s.Workloads)
	out = section(out, s.Runtime)
	out = section(out, s.ResizeBurst)
	out = section(out, s.Widths)
	out = section(out, s.ScanCost)
	return section(out, s.FreeBurst)
}

func section[P point](out []point, ps []P) []point {
	for _, p := range ps {
		out = append(out, p)
	}
	return out
}

// Violations collects every point's broken invariants, in file order.
func (s Snapshot) Violations() []string {
	var out []string
	for _, p := range s.points() {
		out = append(out, p.Violations()...)
	}
	return out
}

// BoundContract is the garbage-bound pair every end-to-end point carries: the
// scheme's declared bound (smr.Unbounded = -1 for the epoch schemes and
// leaky) and the largest garbage the run's sampler observed. GarbagePeak
// above a non-negative Bound is a contract violation, not noise.
type BoundContract struct {
	Bound       int    `json:"bound"`
	GarbagePeak uint64 `json:"garbage_peak"`
}

// BoundExceeded reports whether the sampled garbage peak violated the
// declared bound. Always false for unbounded schemes.
func (b BoundContract) BoundExceeded() bool {
	return b.Bound != smr.Unbounded && b.GarbagePeak > uint64(b.Bound)
}

func (b BoundContract) exceeded() string {
	return fails(b.BoundExceeded(), "garbage peak %d > declared bound %d", b.GarbagePeak, b.Bound)
}

// fails is one invariant's verdict: "" while it holds, the message once broken.
func fails(broken bool, format string, args ...any) string {
	if !broken {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// violations keeps the verdicts that are broken, each under the cell's key.
func violations(cell string, verdicts ...string) (out []string) {
	for _, v := range verdicts {
		if v != "" {
			out = append(out, cell+": "+v)
		}
	}
	return out
}

// WorkloadPoint is one end-to-end cell: throughput, peak live memory, the
// scheme's counters, sampled operation latency, the retire handoff-size
// distribution (how much of the retire traffic the RetireBatch seam
// amortizes; BatchHist bucket i counts batches of size in [2^(i-1), 2^i)) and
// the garbage-bound contract.
type WorkloadPoint struct {
	DS        string   `json:"ds"`
	Scheme    string   `json:"scheme"`
	Threads   int      `json:"threads"`
	KeyRange  uint64   `json:"key_range"`
	Mops      float64  `json:"mops"`
	PeakMB    float64  `json:"peak_mb"`
	Signals   uint64   `json:"signals"`
	Freed     uint64   `json:"freed"`
	Garbage   uint64   `json:"garbage"`
	P50us     float64  `json:"p50_us"`
	P99us     float64  `json:"p99_us"`
	Batches   uint64   `json:"retire_batches,omitempty"`
	BatchP50  int64    `json:"batch_p50,omitempty"`
	BatchP99  int64    `json:"batch_p99,omitempty"`
	BatchMax  int64    `json:"batch_max,omitempty"`
	BatchHist []uint64 `json:"batch_hist,omitempty"`
	BoundContract
}

func (w WorkloadPoint) key() string {
	return fmt.Sprintf("workload %s/%s t=%d range=%d", w.DS, w.Scheme, w.Threads, w.KeyRange)
}

func (w WorkloadPoint) columns() []column {
	return []column{
		col("mops", w.Mops, false, timing),
		col("peak_mb", w.PeakMB, true, info),
		col("p99_us", w.P99us, true, info),
		col("batch_p99", float64(w.BatchP99), false, info).when(w.Batches > 0),
		// Informational in the diff — the hard check is Violations — but a
		// growing peak against a fixed bound is worth seeing.
		col("garbage_pk", float64(w.GarbagePeak), true, info).when(w.GarbagePeak > 0),
	}
}

func (w WorkloadPoint) Violations() []string { return violations(w.key(), w.exceeded()) }

// RuntimePoint is one multi-structure shared-runtime cell: several
// structures attached to one nbr.Runtime, workers oversubscribing its lease
// slots, one lease session covering every structure. Mops includes
// acquire/release per session and Sessions counts the lease recycles.
// Drained reports Retired == Freed after the post-run drain. Interleaved
// marks the adversarial round-robin retire cell;
// DispatchPerBurst is pool FreeBatch calls per reclamation burst the hub
// received — the distinct owners in an average burst, at most the number of
// structures; one-per-run degradation reads as ≈ records/burst. ScanEntries is threads × reservations at the widths the
// cell's scheme was built with. Stall marks the stall-injection cell, whose
// wedged holders never release and are reaped by the runtime's watchdog
// mid-run: there Reaped must be non-zero (the revocation path went dead
// otherwise), in every other cell zero (a healthy holder was revoked). The
// admission-wait (first enqueue → admitted; AdmitWaits is the sample count —
// a p99 over four samples is not a distribution) and garbage-age (sampled
// retire → free) quantiles are read from the runtime's flight recorder in
// microseconds; they are power-of-two bucket edges and wall-clock, so
// nbrtrend shows their movement as context and never flags it.
type RuntimePoint struct {
	Structures string  `json:"structures"` // "+"-joined, attachment order
	Scheme     string  `json:"scheme"`
	Slots      int     `json:"slots"`
	Workers    int     `json:"workers"`
	KeyRange   uint64  `json:"key_range"`
	Mops       float64 `json:"mops"`
	Sessions   uint64  `json:"sessions"`
	Freed      uint64  `json:"freed"`
	BoundContract
	ForcedRounds     uint64  `json:"forced_rounds"`
	Drained          bool    `json:"drained"`
	Interleaved      bool    `json:"interleaved,omitempty"`
	HubBursts        uint64  `json:"hub_bursts,omitempty"`
	HubDispatches    uint64  `json:"hub_dispatches,omitempty"`
	DispatchPerBurst float64 `json:"dispatch_per_burst,omitempty"`
	ScanEntries      int     `json:"scan_entries,omitempty"`
	Stall            bool    `json:"stall,omitempty"`
	Reaped           uint64  `json:"reaped"`
	RevokedReleases  uint64  `json:"revoked_releases"`
	OrphansAdopted   uint64  `json:"orphans_adopted"`
	AdmitWaits       uint64  `json:"admit_waits"`
	AdmitWaitP50us   float64 `json:"admit_wait_p50_us,omitempty"`
	AdmitWaitP99us   float64 `json:"admit_wait_p99_us,omitempty"`
	GarbageAgeP50us  float64 `json:"garbage_age_p50_us,omitempty"`
	GarbageAgeP99us  float64 `json:"garbage_age_p99_us,omitempty"`
	// EventTail is the merged flight-recorder timeline at the end of the run.
	// Not part of the file; a violating cell embeds it in its report, so a
	// failed bound names the stalled thread and its open read phase rather
	// than a bare counter mismatch.
	EventTail string `json:"-"`
}

func (r RuntimePoint) key() string {
	key := fmt.Sprintf("runtime %s/%s t=%d w=%d", r.Structures, r.Scheme, r.Slots, r.Workers)
	if r.Interleaved {
		key += " ilv"
	}
	if r.Stall {
		key += " stall"
	}
	return key
}

func (r RuntimePoint) columns() []column {
	// In a stall cell reaps are the injection working; anywhere else nothing
	// injects holder deaths, so the count must stay zero.
	reaps := zero
	if r.Stall {
		reaps = info
	}
	admit, age := r.AdmitWaitP99us > 0, r.GarbageAgeP99us > 0
	return []column{
		col("mops", r.Mops, false, timing),
		col("sessions", float64(r.Sessions), false, info),
		col("garbage_pk", float64(r.GarbagePeak), true, info).when(r.GarbagePeak > 0),
		// Losing the hub's per-owner grouping shows up here as
		// ≤ structures → ~records-per-burst.
		col("disp_burst", r.DispatchPerBurst, true, ratio).when(r.DispatchPerBurst > 0),
		col("admit_p50", r.AdmitWaitP50us, true, info).when(admit),
		col("admit_p99", r.AdmitWaitP99us, true, info).when(admit),
		col("gage_p50", r.GarbageAgeP50us, true, info).when(age),
		col("gage_p99", r.GarbageAgeP99us, true, info).when(age),
		{name: "reaped", v: float64(r.Reaped), up: true, class: reaps, exact: true},
	}
}

func (r RuntimePoint) Violations() []string {
	out := violations(r.key(), r.exceeded(),
		fails(!r.Drained, "drain left retired != freed (%d freed)", r.Freed),
		fails(r.Stall && r.Reaped == 0, "stall injection reaped nothing (revocation path dead)"),
		fails(!r.Stall && r.Reaped != 0, "%d holders reaped in a cell with no stall injection", r.Reaped))
	if len(out) > 0 && r.EventTail != "" {
		tail := strings.ReplaceAll(strings.TrimRight(r.EventTail, "\n"), "\n", "\n    ")
		out = append(out, "flight recorder tail for "+r.key()+":\n    "+tail)
	}
	return out
}

// ResizeBurstPoint is one resize-burst cell: an insert-only storm on the
// resizable hash map whose retire stream is purely whole bucket arrays, each
// retired as one RetireSegment handle (`segment` mode). The ratio columns are
// pure counters — stamps_per_record is scheme-side bookkeeping events per
// retired record and scans_per_record is reclamation scans per retired record
// — so they hold on any host. Retiring every cell individually stamps every
// record, a floor of exactly 1.0 stamps per record; a segment cell that pays
// more than 1/segmentAmortization stamps+scans per record has therefore lost
// the 8× the segment path claims. BENCH_7…19 also hold `per-node` cells (the
// array dissolved and each cell retired, measured at that floor); Mode stays
// in the key so a loaded per-node cell never pairs with its segment sibling.
type ResizeBurstPoint struct {
	Scheme          string  `json:"scheme"`
	Mode            string  `json:"mode"` // "segment"; "per-node" in BENCH_7…19
	Threads         int     `json:"threads"`
	Keys            uint64  `json:"keys"`
	Mops            float64 `json:"mops"`
	Resizes         uint64  `json:"resizes"`
	Retired         uint64  `json:"retired"`
	SegmentsRetired uint64  `json:"segments_retired"`
	SegRecords      uint64  `json:"seg_records"`
	Scans           uint64  `json:"scans"`
	StampsPerRecord float64 `json:"stamps_per_record"`
	ScansPerRecord  float64 `json:"scans_per_record"`
	BoundContract
	Drained bool `json:"drained"`
}

// segmentAmortization is the factor by which segment retirement must undercut
// the per-record floor of one stamp per retired record.
const segmentAmortization = 8

func (rb ResizeBurstPoint) key() string {
	return fmt.Sprintf("resize %s/%s t=%d", rb.Scheme, rb.Mode, rb.Threads)
}

func (rb ResizeBurstPoint) columns() []column {
	// Only the segment mode's ratios are guarantees: one regressing toward
	// 1.0 means retired arrays stopped riding their segment handles. A
	// recorded per-node cell sits at the floor by construction and is context.
	guarantee := info
	if rb.Mode == "segment" {
		guarantee = ratio
	}
	return []column{
		col("mops", rb.Mops, false, timing),
		col("stamps_rec", rb.StampsPerRecord, true, guarantee),
		col("scans_rec", rb.ScansPerRecord, true, guarantee),
	}
}

func (rb ResizeBurstPoint) Violations() []string {
	cost := rb.StampsPerRecord + rb.ScansPerRecord
	return violations(rb.key(), rb.exceeded(),
		fails(!rb.Drained, "drain left some of the %d retired records unfreed", rb.Retired),
		fails(rb.Mode == "segment" && cost*segmentAmortization > 1,
			"segment mode pays %.4f stamps+scans per retired record, under %dx below the per-node floor of 1.0",
			cost, segmentAmortization))
}

// WidthPoint is one declared-widths-vs-Runtime width-comparison cell: the
// reservation width a structure declares against the width a Runtime hosting
// it builds, each in scan entries. The runtime builds at the structure's
// declared widths, so the entries gap is zero; a reopened gap (RuntimeEntries
// > DeclaredEntries) means the runtime is back to conservative global widths
// — a pure width count, wrong on any host. The JSON names predate the field
// names and are kept so nbrtrend pairs the cells of every committed snapshot.
// The two timings are read only from snapshots up to BENCH_22, which timed a
// scan at each width; the widths are equal by construction, so newer ones
// leave the timings out.
type WidthPoint struct {
	DS                string  `json:"ds"`
	Threads           int     `json:"threads"`
	DeclaredEntries   int     `json:"domain_entries"`  // threads × declared reservations
	RuntimeEntries    int     `json:"runtime_entries"` // threads × runtime-built reservations
	DeclaredNsPerScan float64 `json:"domain_ns_per_scan,omitempty"`
	RuntimeNsScan     float64 `json:"runtime_ns_per_scan,omitempty"`
}

func (wd WidthPoint) key() string { return fmt.Sprintf("width %s t=%d", wd.DS, wd.Threads) }

func (wd WidthPoint) columns() []column {
	return []column{
		{name: "width_gap", v: float64(wd.RuntimeEntries - wd.DeclaredEntries), up: true, class: zero, exact: true},
		col("rt_ns_scan", wd.RuntimeNsScan, true, timing).when(wd.RuntimeNsScan > 0),
	}
}

func (wd WidthPoint) Violations() []string {
	return violations(wd.key(), fails(wd.RuntimeEntries > wd.DeclaredEntries,
		"runtime scans %d announcement entries where the structure declares %d", wd.RuntimeEntries, wd.DeclaredEntries))
}

// ScanCostPoint measures one reservation scan (collect + sort + BagSize
// membership probes) at a given scan width N·R. The scan works in a flat
// preallocated scratch, so AllocsPerOp is exactly zero.
type ScanCostPoint struct {
	Threads     int     `json:"threads"`
	Slots       int     `json:"slots"`
	Entries     int     `json:"entries"` // N·R
	Probes      int     `json:"probes"`  // membership checks per scan
	NsPerScan   float64 `json:"ns_per_scan"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func (s ScanCostPoint) key() string { return fmt.Sprintf("scan N=%d R=%d", s.Threads, s.Slots) }

func (s ScanCostPoint) columns() []column {
	return []column{
		col("ns_per_scan", s.NsPerScan, true, timing),
		col("allocs_per_op", float64(s.AllocsPerOp), true, zero).when(s.AllocsPerOp > 0),
	}
}

func (s ScanCostPoint) Violations() []string {
	return violations(s.key(), fails(s.AllocsPerOp != 0,
		"reservation scan allocates %d times per scan; the flat scratch must not", s.AllocsPerOp))
}

// FreeBurstPoint measures allocator throughput under concurrent
// FreeBatch/refill bursts at a given shard count.
type FreeBurstPoint struct {
	Shards     int     `json:"shards"`
	Goroutines int     `json:"goroutines"`
	Burst      int     `json:"burst"`
	NsPerOp    float64 `json:"ns_per_op"` // per alloc+free pair
	MopsPerSec float64 `json:"mops_per_sec"`
}

func (f FreeBurstPoint) key() string {
	return fmt.Sprintf("burst shards=%d g=%d b=%d", f.Shards, f.Goroutines, f.Burst)
}

func (f FreeBurstPoint) columns() []column {
	return []column{col("ns_per_op", f.NsPerOp, true, timing)}
}

func (f FreeBurstPoint) Violations() []string { return nil }
