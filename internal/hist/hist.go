// Package hist provides a tiny power-of-two latency histogram for the
// benchmark harness. The paper's P1 property is about both throughput and
// latency; reclamation bursts (DEBRA's failure mode) show up as tail
// latency rather than in the mean, so the harness samples operation
// latencies into per-thread histograms and reports quantiles.
//
// A histogram is owner-written (no atomics) and merged after the run, so
// recording costs a handful of instructions.
package hist

import (
	"math"
	"math/bits"
)

// Buckets is the number of power-of-two buckets: bucket i counts values v
// with bitlen(v) == i, i.e. v in [2^(i-1), 2^i).
const Buckets = 64

// Histogram counts values in power-of-two buckets. The zero value is ready
// to use.
type Histogram struct {
	counts [Buckets]uint64
	total  uint64
	max    int64
}

// Record adds one value (typically nanoseconds). Negative values count into
// bucket 0.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bits.Len64(uint64(v))%Buckets]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.total }

// Max returns the largest recorded value.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1); see the
// package-level Quantile for the contract. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	return Quantile(h.counts[:], h.max, q)
}

// Upper is the largest value power-of-two bucket i can hold: bitlen(v) == i
// means v ≤ 2^i − 1, and bucket 0 holds only 0.
func Upper(i int) int64 { return int64(1)<<uint(i) - 1 }

// Quantile is the one bucket walk behind every power-of-two histogram in the
// repo (Histogram, obs.Hist, smr.Stats.BatchHist). counts[i] counts the
// recorded values of bit length i and max is the largest recorded value (or
// any upper bound for it). The result is an upper bound for the nearest-rank
// q-quantile — the smallest recorded value with at least ⌈q·n⌉ values at or
// below it: Upper of the bucket holding it, tightened to max in the final
// bucket. q is clamped to [0, 1]; an empty histogram reports 0.
func Quantile(counts []uint64, max int64, q float64) int64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(1)
	if r := math.Ceil(q * float64(total)); r > 1 {
		rank = min(uint64(r), total)
	}
	var seen uint64
	for i, c := range counts {
		if seen += c; seen >= rank {
			return min(Upper(i), max)
		}
	}
	return max
}
