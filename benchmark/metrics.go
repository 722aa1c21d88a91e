package main

import (
	"math"
	"slices"
)

// metricDef names one metric. BENCHMARK.json repeats these tables for the
// driver; benchmark_test.go fails when the two drift apart.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// endToEnd are the gated metrics; every workload emits all of them, from the
// untraced public-API trials only, in reference time (calibrate.go).
//
// ops_per_s, the latency percentiles and live_peak_mb report the median
// trial: what calibration leaves behind is two-sided (a trial on a half-speed
// host is over-corrected as often as a noisy one is under-corrected), and on
// the sizing runs the median of 5 spread 2% between runs where the best of 5
// spread 10% (session-churn). garbage_peak_records reports the mean of the
// trials' peaks: session-churn's is 6 or 7 records, and a median of small
// integers moves in 17% steps. setup_s reports the median of every set-up
// repetition of the run (trial.go).
//
// The gated tail is the 95th percentile, not the issue's 99th (opP99 below
// says why).
//
// Bounds are at least three times the quartile spread that ten runs of one
// binary showed on this host (README.md, "Measured spreads"), capped at the
// contract's 0.25.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.20},
	{"op_p95_us", "us", "lower", 0.25},
	{"garbage_peak_records", "records", "lower", 0.25},
	{"live_peak_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// opP99 is the issue's tail metric. It is measured and printed with the
// end-to-end metrics, and it is in BENCHMARK.json by its name — in the ledger,
// where nothing is bounded, because on this host no bound the contract allows
// (≤25%) holds it. On tree-update-hp the hazard scans (one op in ~250 per
// thread, ~12 µs each) and their collateral put about 1% of the ops in a
// second mode, so p99 sits on the cliff between the modes, and which side it
// lands on follows the host: the median trial read 1.97–2.54 µs (median 2.18)
// over ten runs on a stretch of the host at 67–106% of the reference speed and
// 2.57–3.30 µs over four runs on a stretch at 47–80%, with p95 in place (1.56
// against 1.52–1.65 µs). tree-update's moved by up to 26% the same way. A gate
// that the host's stretch decides is worse than none, so the gate holds
// op_p95_us, below the cliff on every workload.
var opP99 = metricDef{"op_p99_us", "us", "lower", 0}

// failedOpsPct is the issue's seventh end-to-end quantity, and "any increase"
// is its bound. It is printed with the others, but BENCHMARK.json cannot list
// it under end_to_end: the driver's contract takes only metrics that are
// never 0 and bounds that are a share of the baseline, and this one is 0 on a
// healthy tree. The gate on it is the result line instead — its failed and
// attempted are this metric's numerator and denominator, correct is false and
// the exit code non-zero whenever it is above 0. So that the name exists in
// BENCHMARK.json, the ledger carries it too, over the layer passes' trials.
var failedOpsPct = metricDef{"failed_ops_pct", "%", "lower", 0}

// ungated are printed under the end-to-end metrics, from the same trials.
var ungated = []metricDef{opP99, failedOpsPct}

// perLayer is the layer ledger, in README order. No bounds: these explain a
// move of an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	// ds — traced pass.
	{"ds.self_us_per_op", "us", "lower", 0},
	{"ds.protects_per_op", "count", "lower", 0},
	{"ds.restarts_per_kop", "count", "lower", 0},
	// core, smr/hp — traced pass timings, untraced-reference counters.
	{"scheme.guard_us_per_op", "us", "lower", 0},
	{"scheme.reclaim_us_p50", "us", "lower", 0},
	{"scheme.reclaim_us_p99", "us", "lower", 0},
	{"scheme.scans_per_kretired", "count", "lower", 0},
	{"scheme.freed_per_scan", "records", "higher", 0},
	{"scheme.stamps_per_record", "ratio", "lower", 0},
	{"scheme.signals_per_kretired", "count", "lower", 0},
	{"scheme.neutralized_per_signal", "ratio", "lower", 0},
	{"scheme.swap_debra_ratio", "ratio", "higher", 0},
	// sigsim — unit probes and the recorder's signal-latency histogram.
	{"sigsim.poll_ns", "ns", "lower", 0},
	{"sigsim.phase_cycle_ns", "ns", "lower", 0},
	{"sigsim.signal_all_ns", "ns", "lower", 0},
	{"sigsim.signal_latency_us_p50", "us", "lower", 0},
	{"sigsim.signal_latency_us_p99", "us", "lower", 0},
	// mem — arena spans of the traced pass and one probe.
	{"mem.self_us_per_op", "us", "lower", 0},
	{"mem.free_us_per_kfreed", "us", "lower", 0},
	{"mem.free_batch_p50", "records", "higher", 0},
	{"mem.global_ops_per_kfreed", "count", "lower", 0},
	{"mem.alloc_free_ns", "ns", "lower", 0},
	// nbr (lease, admission, registry) — observed pass, per session.
	{"lease.acquire_us_p50", "us", "lower", 0},
	{"lease.acquire_us_p99", "us", "lower", 0},
	{"lease.release_us_p50", "us", "lower", 0},
	{"lease.release_us_p99", "us", "lower", 0},
	{"lease.body_us_p50", "us", "lower", 0},
	{"lease.signals_per_session", "count", "lower", 0},
	{"lease.forced_rounds_per_ksession", "count", "lower", 0},
	{"lease.orphans_per_session", "records", "lower", 0},
	{"lease.go_allocs_per_session", "count", "lower", 0},
	// obs — the recorder's own cost and what it sees.
	{"obs.on_cost_pct", "%", "lower", 0},
	{"obs.read_phase_us_p50", "us", "lower", 0},
	{"obs.read_phase_us_p99", "us", "lower", 0},
	{"obs.garbage_age_us_p50", "us", "lower", 0},
	{"obs.garbage_age_us_p99", "us", "lower", 0},
	// benchmark — the instrument's own footprint.
	{"trace.op_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	opP99,
	{"bench.op_p999_us", "us", "lower", 0},
	{"bench.host_speed_pct", "%", "higher", 0},
	{"bench.cal_disturbed_pct", "%", "lower", 0},
	failedOpsPct,
}

// stat is one reported metric: the value the rule picked, and the spread of
// the per-trial values it was picked from.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile is the nearest-rank q-quantile of sorted samples (0 when empty).
func quantile[T int32 | int64 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// spread fills a stat's median and quartiles from per-trial values.
func spread(unit string, vals []float64, pick func(sorted []float64) float64) stat {
	s := slices.Clone(vals)
	slices.Sort(s)
	return stat{
		Value: pick(s), Unit: unit, N: len(s),
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
	}
}

func pickMedian(s []float64) float64 { return quantile(s, 0.5) }

func pickMean(s []float64) float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func usQuantile(sortedNs []int64, q float64) float64 { return float64(quantile(sortedNs, q)) / 1e3 }

// endToEndStats folds one workload's untraced trials into the gated metrics
// and the two ungated ones (failed_ops_pct pooled over all trials).
func endToEndStats(trials []*trialResult) map[string]stat {
	col := func(f func(*trialResult) float64) []float64 {
		v := make([]float64, len(trials))
		for i, t := range trials {
			v[i] = f(t)
		}
		return v
	}
	var attempted, failed uint64
	var setups []float64
	for _, t := range trials {
		attempted += t.attempted
		failed += t.failedOps
		setups = append(setups, t.setups...)
	}
	pct := 100 * float64(failed) / float64(max(attempted, 1))
	return map[string]stat{
		"ops_per_s":            spread("ops/s", col(func(t *trialResult) float64 { return t.opsPerS }), pickMedian),
		"op_p50_us":            spread("us", col(func(t *trialResult) float64 { return usQuantile(t.lat, 0.50) }), pickMedian),
		"op_p95_us":            spread("us", col(func(t *trialResult) float64 { return usQuantile(t.lat, 0.95) }), pickMedian),
		opP99.name:             spread("us", col(func(t *trialResult) float64 { return usQuantile(t.lat, 0.99) }), pickMedian),
		"garbage_peak_records": spread("records", col(func(t *trialResult) float64 { return float64(t.garbagePk) }), pickMean),
		"live_peak_mb":         spread("MB", col(func(t *trialResult) float64 { return t.livePkMB }), pickMedian),
		"setup_s":              spread("s", setups, pickMedian),
		failedOpsPct.name:      {Value: pct, Unit: failedOpsPct.unit, Median: pct, Q1: pct, Q3: pct, N: len(trials)},
	}
}

// layerRun is the evidence one workload's layer passes produced.
type layerRun struct {
	refs     []*trialResult // untraced public reference trials
	swaps    []*trialResult // the same workload with the scheme swapped for debra
	traced   *trialResult
	observed *trialResult
	probes   probeResults
}

func (l *layerRun) all() []*trialResult {
	all := append(slices.Clone(l.refs), l.swaps...)
	return append(all, l.traced, l.observed)
}

func bestOps(trials []*trialResult) (best *trialResult) {
	for _, t := range trials {
		if best == nil || t.opsPerS > best.opsPerS {
			best = t
		}
	}
	return best
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerStats turns a layerRun into the ledger. A quantity with no events
// behind it (no reclaiming retire on session-churn, no sessions on the
// steady workloads) reads 0.
func perLayerStats(l *layerRun) map[string]float64 {
	ref := bestOps(l.refs)
	st, tr, ob := ref.stats, l.traced.trace, l.observed
	m := map[string]float64{
		"ds.self_us_per_op":   tr.dsUs,
		"ds.protects_per_op":  tr.protects,
		"ds.restarts_per_kop": tr.restarts,

		"scheme.guard_us_per_op":        tr.schemeUs,
		"scheme.reclaim_us_p50":         usQuantile(tr.reclaimNs, 0.50),
		"scheme.reclaim_us_p99":         usQuantile(tr.reclaimNs, 0.99),
		"scheme.scans_per_kretired":     1e3 * ratio(float64(st.Scans), float64(st.Retired)),
		"scheme.freed_per_scan":         ratio(float64(st.Freed), float64(st.Scans)),
		"scheme.stamps_per_record":      st.StampsPerRecord(),
		"scheme.signals_per_kretired":   1e3 * ratio(float64(st.Signals), float64(st.Retired)),
		"scheme.neutralized_per_signal": ratio(float64(st.Neutralized), float64(st.Signals)),
		"scheme.swap_debra_ratio":       ratio(ref.opsPerS, bestOps(l.swaps).opsPerS),

		"sigsim.poll_ns":        l.probes.pollNs,
		"sigsim.phase_cycle_ns": l.probes.phaseCycleNs,
		"sigsim.signal_all_ns":  l.probes.signalAllNs,

		"mem.self_us_per_op":        tr.memUs,
		"mem.free_us_per_kfreed":    tr.freeUsPerK,
		"mem.free_batch_p50":        float64(quantile(tr.batches, 0.5)),
		"mem.global_ops_per_kfreed": tr.globalPerK,
		"mem.alloc_free_ns":         l.probes.allocFreeNs,

		"obs.on_cost_pct": 100 * (1 - ratio(ob.opsPerS, ref.opsPerS)),

		"trace.op_us":        tr.opUs,
		"trace.overhead_pct": 100 * (1 - ratio(l.traced.opsPerS, ref.opsPerS)),
		opP99.name:           math.Inf(1),
		"bench.op_p999_us":   math.Inf(1),
	}
	var attempted, failed uint64
	for _, t := range l.all() {
		attempted += t.attempted
		failed += t.failedOps
	}
	m[failedOpsPct.name] = 100 * ratio(float64(failed), float64(attempted))
	for _, r := range l.refs {
		m[opP99.name] = min(m[opP99.name], usQuantile(r.lat, 0.99))
		m["bench.op_p999_us"] = min(m["bench.op_p999_us"], usQuantile(r.lat, 0.999))
		m["bench.host_speed_pct"] += 100 * r.hostSpeed / float64(len(l.refs))
		m["bench.cal_disturbed_pct"] += 100 * r.calDisturbed / float64(len(l.refs))
	}
	if d := ob.debug; d != nil {
		m["sigsim.signal_latency_us_p50"], m["sigsim.signal_latency_us_p99"] = d.histUs("signal_latency")
		m["obs.read_phase_us_p50"], m["obs.read_phase_us_p99"] = d.histUs("read_phase")
		m["obs.garbage_age_us_p50"], m["obs.garbage_age_us_p99"] = d.histUs("garbage_age")
	}
	// Lease metrics are per session of the measured window; the steady
	// workloads hold two leases across it and open none, so they read 0.
	if sessions := float64(len(ob.acq)); sessions > 0 {
		slices.Sort(ob.acq)
		slices.Sort(ob.body)
		slices.Sort(ob.rel)
		m["lease.acquire_us_p50"] = usQuantile(ob.acq, 0.50)
		m["lease.acquire_us_p99"] = usQuantile(ob.acq, 0.99)
		m["lease.release_us_p50"] = usQuantile(ob.rel, 0.50)
		m["lease.release_us_p99"] = usQuantile(ob.rel, 0.99)
		m["lease.body_us_p50"] = usQuantile(ob.body, 0.50)
		m["lease.go_allocs_per_session"] = float64(ob.goMallocs) / sessions
		if d := ob.debug; d != nil {
			// Counters are whole-trial; so is the denominator.
			all := float64(ob.attempted)
			m["lease.signals_per_session"] = float64(d.Stats.Signals) / all
			m["lease.forced_rounds_per_ksession"] = 1e3 * float64(d.ForcedRounds) / all
			m["lease.orphans_per_session"] = float64(d.OrphansAdopted) / all
		}
	}
	return m
}
