package smr

import (
	"testing"

	"nbr/internal/hist"
	"nbr/internal/obs"
)

func TestBatchQuantileNearestRank(t *testing.T) {
	var s Stats
	s.BatchHist[1] = 1  // one handoff of size 1
	s.BatchHist[10] = 1 // one handoff of size ~1000
	if got := s.BatchQuantile(0.50); got != 1 {
		t.Fatalf("p50 of {1, ~1000} = %d, want 1 (nearest rank)", got)
	}
	if got := s.BatchQuantile(0.99); got != hist.Upper(10) {
		t.Fatalf("p99 of {1, ~1000} = %d, want %d", got, hist.Upper(10))
	}
	if got := s.BatchQuantile(0); got != 1 {
		t.Fatalf("p0 = %d, want 1", got)
	}
	if got := s.BatchQuantile(1); got != hist.Upper(10) {
		t.Fatalf("p100 = %d, want %d", got, hist.Upper(10))
	}
	if got := (Stats{}).BatchQuantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", got)
	}
	if got, want := s.RetireCalls(), uint64(2); got != want {
		t.Fatalf("RetireCalls = %d, want %d", got, want)
	}
	if got := s.BatchMax(); got != hist.Upper(10) {
		t.Fatalf("BatchMax = %d, want %d", got, hist.Upper(10))
	}
}

func TestBatchHistRecordBuckets(t *testing.T) {
	var h BatchHist
	h.Record(1)
	h.Record(2)
	h.Record(3)
	h.Record(1 << 20) // saturates into the open-ended top bucket
	var agg [BatchBuckets]uint64
	h.AddTo(&agg)
	if agg[1] != 1 || agg[2] != 2 || agg[BatchBuckets-1] != 1 {
		t.Fatalf("buckets = %v", agg)
	}
}

// TestQuantileWalkShared: the repo's three power-of-two histograms — the
// owner-written hist.Histogram, the atomic obs.Hist and Stats.BatchHist —
// report the same quantiles for the same samples (one walk, hist.Quantile:
// nearest rank, inclusive bucket edge, 0 for bucket 0 and for no samples).
// The largest sample sits on its bucket's edge because BatchHist records no
// exact maximum to tighten the final bucket with.
func TestQuantileWalkShared(t *testing.T) {
	samples := []int{1, 1, 1, 2, 3, 5, 8, 8, 13, 64, 100, 100, 900, 1023}
	var h hist.Histogram
	var o obs.Hist
	var b BatchHist
	for _, v := range samples {
		h.Record(int64(v))
		o.Record(int64(v))
		b.Record(v)
	}
	var s Stats
	b.AddTo(&s.BatchHist)
	for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		want := h.Quantile(q)
		if got := o.Quantile(q); got != want {
			t.Errorf("q=%v: obs.Hist = %d, hist.Histogram = %d", q, got, want)
		}
		if got := s.BatchQuantile(q); got != want {
			t.Errorf("q=%v: Stats.BatchQuantile = %d, hist.Histogram = %d", q, got, want)
		}
	}
	if got := h.Quantile(0.5); got != 15 { // 7th of 14 samples is 8: bucket [8,16)
		t.Errorf("p50 = %d, want 15", got)
	}
	var emptyH hist.Histogram
	var emptyO obs.Hist
	if emptyH.Quantile(0.5) != 0 || emptyO.Quantile(0.5) != 0 || (Stats{}).BatchQuantile(0.5) != 0 {
		t.Error("an empty histogram must report 0")
	}
}
