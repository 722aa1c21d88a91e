// Package hist is the repo's one histogram: power-of-two buckets and an exact
// maximum, behind the benchmark's operation latencies, the flight recorder's
// latency histograms and every guard's retire handoff sizes. The paper's P1
// property is about both throughput and latency; reclamation bursts (DEBRA's
// failure mode) show up as tail latency rather than in the mean, so the
// harness samples latencies into histograms and reports quantiles.
//
// Every write goes through sync/atomic, so any goroutine may Record while
// others read Count, Max or Quantile; a single-writer Record costs one atomic
// add and a load of the max. The fields are plain words, so a Histogram is
// copied by value and per-thread copies are folded with Merge.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Buckets is the number of power-of-two buckets: bucket i counts values v
// with bitlen(v) == i, i.e. v in [2^(i-1), 2^i).
const Buckets = 64

// Histogram counts values in power-of-two buckets. The count is the sum of
// the buckets. The zero value is ready to use.
type Histogram struct {
	counts [Buckets]uint64
	max    int64
}

// Record adds one value (a duration in nanoseconds, a batch length).
// Negative values count as 0.
func (h *Histogram) Record(v int64) {
	v = max(v, 0)
	atomic.AddUint64(&h.counts[bits.Len64(uint64(v))%Buckets], 1)
	h.raise(v)
}

// raise lifts the maximum to v if v is larger.
func (h *Histogram) raise(v int64) {
	for m := atomic.LoadInt64(&h.max); v > m; m = atomic.LoadInt64(&h.max) {
		if atomic.CompareAndSwapInt64(&h.max, m, v) {
			return
		}
	}
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := range h.counts {
		if c := atomic.LoadUint64(&other.counts[i]); c != 0 {
			atomic.AddUint64(&h.counts[i], c)
		}
	}
	h.raise(atomic.LoadInt64(&other.max))
}

// load returns a snapshot of the buckets and their sum.
func (h *Histogram) load() (counts [Buckets]uint64, total uint64) {
	for i := range counts {
		counts[i] = atomic.LoadUint64(&h.counts[i])
		total += counts[i]
	}
	return counts, total
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 {
	_, total := h.load()
	return total
}

// Max returns the largest recorded value, 0 when none was recorded.
func (h *Histogram) Max() int64 { return atomic.LoadInt64(&h.max) }

// Counts returns the bucket counts up to the last non-empty bucket, nil when
// nothing was recorded.
func (h *Histogram) Counts() []uint64 {
	counts, _ := h.load()
	n := len(counts)
	for n > 0 && counts[n-1] == 0 {
		n--
	}
	return append([]uint64(nil), counts[:n]...)
}

// Quantile returns an upper bound for the nearest-rank q-quantile, the
// smallest recorded value with at least ⌈q·n⌉ values at or below it: the
// largest value its bucket can hold (2^i − 1 for bucket i), tightened to the
// recorded maximum. q is clamped to [0, 1]; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) int64 {
	counts, total := h.load()
	m := h.Max()
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
			return min(int64(1)<<i-1, m)
		}
	}
	return m
}
