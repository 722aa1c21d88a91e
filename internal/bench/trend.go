package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the snapshot-trajectory tooling behind cmd/nbrtrend: it
// loads the BENCH_<n>.json files that accumulate one per PR and diffs
// consecutive pairs, so a session (or CI) can see at a glance whether the
// reclaim path got faster or slower since the last snapshot.

// ReadSnapshot loads one perf snapshot. Older schema versions load too —
// fields they lack (e.g. v1 has no batch histograms) stay zero and the
// comparison simply skips them.
func ReadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(s.Schema, "nbr-perf-snapshot/") {
		return s, fmt.Errorf("%s: schema %q is not a perf snapshot", path, s.Schema)
	}
	return s, nil
}

// TrendDelta is one metric compared across two snapshots.
type TrendDelta struct {
	Cell       string // e.g. "workload dgt/nbr+ t=8 range=200000"
	Metric     string // e.g. "mops"
	Prev, Next float64
	// Pct is the relative change in the direction of the metric: positive
	// means worse (throughput down, cost up).
	Pct        float64
	Regression bool
	// Untrusted marks a delta whose two sides are not comparable: snapshots
	// from different host shapes (gomaxprocs/goarch), or a runtime-cell timing
	// across the schema v8/v9 boundary (see CompareSnapshots). The numbers are
	// shown but never flagged.
	Untrusted bool
}

func (d TrendDelta) String() string {
	arrow := "→"
	tag := ""
	switch {
	case d.Regression:
		// Host-independent invariants (a scan that starts allocating) stay
		// flagged even across host shapes.
		tag = "  REGRESSION"
	case d.Untrusted:
		tag = "  UNTRUSTED(host shape or runtime-cell source differs)"
	}
	return fmt.Sprintf("%-44s %-10s %10.3f %s %10.3f  (%+.1f%%)%s",
		d.Cell, d.Metric, d.Prev, arrow, d.Next, d.Pct, tag)
}

// HostShapeMismatch describes why two snapshots' numbers are not comparable
// (different gomaxprocs or goarch), or returns "" when they are. Deltas
// computed across a mismatch are marked Untrusted and never flagged as
// regressions — a slower machine is not a slower reclaim path.
func HostShapeMismatch(prev, next Snapshot) string {
	var reasons []string
	if prev.GOMAXPROCS != next.GOMAXPROCS {
		reasons = append(reasons, fmt.Sprintf("gomaxprocs %d → %d", prev.GOMAXPROCS, next.GOMAXPROCS))
	}
	if prev.GOARCH != next.GOARCH {
		reasons = append(reasons, fmt.Sprintf("goarch %s → %s", prev.GOARCH, next.GOARCH))
	}
	return strings.Join(reasons, ", ")
}

// worsePct returns how much worse next is than prev, as a percentage, for a
// metric where `up` indicates whether larger values are worse.
func worsePct(prev, next float64, up bool) float64 {
	if prev == 0 {
		return 0
	}
	pct := (next - prev) / prev * 100
	if !up {
		pct = -pct
	}
	return pct
}

// CompareSnapshots diffs every cell the two snapshots share. threshold is
// the worsening percentage above which a delta is flagged as a regression
// (throughput drops, per-scan and per-burst cost growth); informational
// metrics (peak memory, tail latency, batch sizes) are reported but never
// flagged, since they swing with host load. A reservation scan that starts
// allocating is always flagged — the flat-scratch invariant is exact.
func CompareSnapshots(prev, next Snapshot, threshold float64) []TrendDelta {
	var out []TrendDelta
	untrusted := HostShapeMismatch(prev, next) != ""
	// adder appends timing deltas, marked (and never flagged) when the two
	// sides are not comparable.
	adder := func(distrust bool) func(cell, metric string, p, n float64, up, flag bool) {
		return func(cell, metric string, p, n float64, up, flag bool) {
			pct := worsePct(p, n, up)
			out = append(out, TrendDelta{
				Cell: cell, Metric: metric, Prev: p, Next: n, Pct: pct,
				Regression: flag && pct > threshold && !distrust,
				Untrusted:  distrust,
			})
		}
	}
	add := adder(untrusted)

	prevW := map[string]WorkloadPoint{}
	for _, w := range prev.Workloads {
		prevW[fmt.Sprintf("workload %s/%s t=%d range=%d", w.DS, w.Scheme, w.Threads, w.KeyRange)] = w
	}
	for _, w := range next.Workloads {
		key := fmt.Sprintf("workload %s/%s t=%d range=%d", w.DS, w.Scheme, w.Threads, w.KeyRange)
		p, ok := prevW[key]
		if !ok {
			continue
		}
		add(key, "mops", p.Mops, w.Mops, false, true)
		add(key, "peak_mb", p.PeakMB, w.PeakMB, true, false)
		add(key, "p99_us", p.P99us, w.P99us, true, false)
		if p.Batches > 0 && w.Batches > 0 {
			add(key, "batch_p99", float64(p.BatchP99), float64(w.BatchP99), false, false)
		}
		// Garbage-bound contract column (schema v3): informational in the
		// diff — the hard check is nbrbench -assert-bound and dstest — but
		// a growing peak against a fixed bound is worth seeing here.
		if p.GarbagePeak > 0 && w.GarbagePeak > 0 {
			add(key, "garbage_pk", float64(p.GarbagePeak), float64(w.GarbagePeak), true, false)
		}
	}

	// Shared-runtime cells (schema v4): throughput is flagged like the
	// workload cells; the contract columns (garbage peak against the
	// aggregated bound, fallback reuses) are informational here — the hard
	// check is nbrbench -assert-bound — but a fallback count that becomes
	// non-zero is a host-independent regression of the round guarantee, so
	// it is always flagged, like the scan-alloc invariant below.
	runtimeKey := func(r RuntimePoint) string {
		key := fmt.Sprintf("runtime %s/%s t=%d w=%d", r.Structures, r.Scheme, r.Slots, r.Workers)
		if r.Interleaved {
			key += " ilv" // schema v5: the adversarial round-robin retire cell
		}
		if r.Stall {
			key += " stall" // schema v6: the holder-death injection cell
		}
		return key
	}
	// Up to schema v8 the runtime cells ran a reconstruction of the runtime
	// inside the harness (workers spinning on a full registry); from v9 they
	// run the public nbr.Runtime (blocking FIFO admission, the shipped
	// watchdog). Across that boundary their wall-clock columns — everything
	// that goes through addRT — are not comparable; their counters obey the
	// same invariants on both sides and are compared (and flagged) as ever.
	fromTwin := func(s Snapshot) bool {
		var v int // stays 0 — older than any boundary — for a schema that does not parse
		fmt.Sscanf(s.Schema, "nbr-perf-snapshot/v%d", &v)
		return v < 9
	}
	addRT := adder(untrusted || fromTwin(prev) != fromTwin(next))
	prevR := map[string]RuntimePoint{}
	for _, r := range prev.Runtime {
		prevR[runtimeKey(r)] = r
	}
	for _, r := range next.Runtime {
		key := runtimeKey(r)
		p, ok := prevR[key]
		if !ok {
			continue
		}
		addRT(key, "mops", p.Mops, r.Mops, false, true)
		addRT(key, "sessions", float64(p.Sessions), float64(r.Sessions), false, false)
		if p.GarbagePeak > 0 && r.GarbagePeak > 0 {
			addRT(key, "garbage_pk", float64(p.GarbagePeak), float64(r.GarbagePeak), true, false)
		}
		// Dispatch-per-burst (schema v5) is a counter ratio, not a timing:
		// host-independent, so its growth past the threshold is flagged even
		// across host shapes. Losing the staging amortization shows up here
		// as ~1 → ~records-per-burst.
		if p.DispatchPerBurst > 0 && r.DispatchPerBurst > 0 {
			pct := worsePct(p.DispatchPerBurst, r.DispatchPerBurst, true)
			out = append(out, TrendDelta{
				Cell: key, Metric: "disp_burst",
				Prev: p.DispatchPerBurst, Next: r.DispatchPerBurst, Pct: pct,
				Regression: pct > threshold,
				Untrusted:  untrusted,
			})
		}
		out = append(out, TrendDelta{
			Cell: key, Metric: "fallbacks",
			Prev: float64(p.Fallbacks), Next: float64(r.Fallbacks),
			Pct: worsePct(float64(p.Fallbacks), float64(r.Fallbacks), true),
			// The round guarantee is host-independent: an unaged-slot
			// fallback that appears is a regression on any machine.
			Regression: p.Fallbacks == 0 && r.Fallbacks > 0,
			Untrusted:  untrusted,
		})
		// Time-domain quantiles (schema v8) are wall-clock, so they are
		// host-dependent context: recorded with flag=false, never regressions,
		// exactly like tail latency on the workload cells. The counter-ratio
		// invariants this file already trusts (fallbacks, dispatch-per-burst,
		// reaps) remain the flagged surface.
		if p.AdmitWaitP99us > 0 && r.AdmitWaitP99us > 0 {
			addRT(key, "admit_p50", p.AdmitWaitP50us, r.AdmitWaitP50us, true, false)
			addRT(key, "admit_p99", p.AdmitWaitP99us, r.AdmitWaitP99us, true, false)
		}
		if p.GarbageAgeP99us > 0 && r.GarbageAgeP99us > 0 {
			addRT(key, "gage_p50", p.GarbageAgeP50us, r.GarbageAgeP50us, true, false)
			addRT(key, "gage_p99", p.GarbageAgeP99us, r.GarbageAgeP99us, true, false)
		}
		// Reap counts (schema v6) are counters, not timings. In a stall cell
		// they are the injection working (informational); in any other cell
		// nothing injects holder deaths, so reaps that go 0 → non-zero mean
		// the watchdog revoked a healthy holder — a regression on any
		// machine, flagged across host shapes.
		out = append(out, TrendDelta{
			Cell: key, Metric: "reaped",
			Prev: float64(p.Reaped), Next: float64(r.Reaped),
			Pct:        worsePct(float64(p.Reaped), float64(r.Reaped), true),
			Regression: !r.Stall && p.Reaped == 0 && r.Reaped > 0,
		})
	}

	// Resize-burst cells (schema v7): the ratio columns are pure counters, so
	// like dispatch-per-burst they are flagged even across host shapes. A
	// segment-mode stamps_per_record regressing toward 1.0 means retired
	// arrays stopped riding their segment handles — the fast path quietly
	// degrading to per-record retirement — and scans_per_record growing means
	// the scan cadence lost its amortization with it.
	prevRB := map[string]ResizeBurstPoint{}
	for _, rb := range prev.ResizeBurst {
		prevRB[fmt.Sprintf("resize %s/%s t=%d", rb.Scheme, rb.Mode, rb.Threads)] = rb
	}
	for _, rb := range next.ResizeBurst {
		key := fmt.Sprintf("resize %s/%s t=%d", rb.Scheme, rb.Mode, rb.Threads)
		p, ok := prevRB[key]
		if !ok {
			continue
		}
		add(key, "mops", p.Mops, rb.Mops, false, true)
		for _, ratio := range []struct {
			metric     string
			prev, next float64
		}{
			{"stamps_rec", p.StampsPerRecord, rb.StampsPerRecord},
			{"scans_rec", p.ScansPerRecord, rb.ScansPerRecord},
		} {
			pct := worsePct(ratio.prev, ratio.next, true)
			out = append(out, TrendDelta{
				Cell: key, Metric: ratio.metric,
				Prev: ratio.prev, Next: ratio.next, Pct: pct,
				// Only the segment mode's ratios are guarantees; the per-node
				// baseline sits at the 1.0 floor by construction and is
				// reported for the A/B context only.
				Regression: rb.Mode == "segment" && ratio.prev > 0 && pct > threshold,
				Untrusted:  untrusted,
			})
		}
	}

	// Width-comparison cells (schema v5): the entries gap is a pure width
	// count — host-independent and exact — so a Domain-vs-Runtime gap that
	// reopens (runtime scanning wider announcement rows than a Domain would
	// for the same structure) is always a regression, on any machine.
	prevWd := map[string]WidthPoint{}
	for _, wd := range prev.Widths {
		prevWd[fmt.Sprintf("width %s t=%d", wd.DS, wd.Threads)] = wd
	}
	for _, wd := range next.Widths {
		key := fmt.Sprintf("width %s t=%d", wd.DS, wd.Threads)
		p, ok := prevWd[key]
		if !ok {
			continue
		}
		prevGap := float64(p.RuntimeEntries - p.DomainEntries)
		nextGap := float64(wd.RuntimeEntries - wd.DomainEntries)
		out = append(out, TrendDelta{
			Cell: key, Metric: "width_gap",
			Prev: prevGap, Next: nextGap,
			Pct:        worsePct(prevGap, nextGap, true),
			Regression: nextGap > 0,
		})
		add(key, "rt_ns_scan", p.RuntimeNsScan, wd.RuntimeNsScan, true, true)
	}

	prevS := map[string]ScanCostPoint{}
	for _, s := range prev.ScanCost {
		prevS[fmt.Sprintf("scan N=%d R=%d", s.Threads, s.Slots)] = s
	}
	for _, s := range next.ScanCost {
		key := fmt.Sprintf("scan N=%d R=%d", s.Threads, s.Slots)
		p, ok := prevS[key]
		if !ok {
			continue
		}
		add(key, "ns_per_scan", p.NsPerScan, s.NsPerScan, true, true)
		if p.AllocsPerOp > 0 || s.AllocsPerOp > 0 {
			// A scan that *starts* allocating breaks the flat-scratch
			// invariant and is always a regression; a scan that already
			// allocated, or stopped allocating, is reported but not flagged.
			out = append(out, TrendDelta{
				Cell: key, Metric: "allocs_per_op",
				Prev: float64(p.AllocsPerOp), Next: float64(s.AllocsPerOp),
				Pct: worsePct(float64(p.AllocsPerOp), float64(s.AllocsPerOp), true),
				// The flat-scratch invariant is host-independent: a scan
				// that starts allocating is a regression on any machine.
				Regression: p.AllocsPerOp == 0 && s.AllocsPerOp > 0,
				Untrusted:  untrusted,
			})
		}
	}

	prevF := map[string]FreeBurstPoint{}
	for _, f := range prev.FreeBurst {
		prevF[fmt.Sprintf("burst shards=%d g=%d b=%d", f.Shards, f.Goroutines, f.Burst)] = f
	}
	for _, f := range next.FreeBurst {
		key := fmt.Sprintf("burst shards=%d g=%d b=%d", f.Shards, f.Goroutines, f.Burst)
		p, ok := prevF[key]
		if !ok {
			continue
		}
		add(key, "ns_per_op", p.NsPerOp, f.NsPerOp, true, true)
	}
	return out
}

// Regressions filters a comparison down to the flagged deltas.
func Regressions(deltas []TrendDelta) []TrendDelta {
	var out []TrendDelta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}
