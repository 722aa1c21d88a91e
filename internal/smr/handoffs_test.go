package smr_test

import (
	"testing"

	"nbr/internal/core"
	"nbr/internal/hist"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/smr"
)

// handoffScheme builds a two-thread NBR scheme and its pool for handoff
// histogram tests.
func handoffScheme() (*core.Scheme, *mem.Pool[rec]) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
	return core.New(pool, 2, core.Config{}), pool
}

// handoff retires n fresh records through g in one call: Retire for one,
// RetireBatch otherwise.
func handoff(g smr.Guard, pool *mem.Pool[rec], n int) {
	ps := make([]mem.Ptr, n)
	for i := range ps {
		ps[i], _ = pool.Alloc(g.Tid())
		g.OnAlloc(ps[i])
	}
	if n == 1 {
		g.Retire(ps[0])
		return
	}
	g.RetireBatch(ps)
}

// TestBatchQuantileNearestRank: Scheme.Handoffs reads the nearest-rank
// handoff size, counts one handoff per retire call and keeps the exact
// largest handoff.
func TestBatchQuantileNearestRank(t *testing.T) {
	sch, pool := handoffScheme()
	g := sch.Guard(0)
	handoff(g, pool, 1)    // one handoff of size 1
	handoff(g, pool, 1000) // one handoff of size 1000
	h := sch.Handoffs()
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 1}, {0.99, 1000}, {0, 1}, {1, 1000}} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Fatalf("q%v of {1, 1000} = %d, want %d (nearest rank)", tc.q, got, tc.want)
		}
	}
	if h.Count() != 2 {
		t.Fatalf("handoffs = %d, want 2", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("largest handoff = %d, want 1000", h.Max())
	}
	empty, _ := handoffScheme()
	eh := empty.Handoffs()
	if got := eh.Quantile(0.5); got != 0 {
		t.Fatalf("empty handoff quantile = %d, want 0", got)
	}
}

// TestQuantileWalkShared: the histograms the repo reads quantiles from — a
// plain hist.Histogram, a recorder histogram fed through obs.Observe, and
// the handoff histogram merged across guards by Scheme.Handoffs — report the
// same quantiles for the same samples (nearest rank, inclusive bucket edge,
// tightened to the exact maximum, 0 for no samples).
func TestQuantileWalkShared(t *testing.T) {
	samples := []int{1, 1, 1, 2, 3, 5, 8, 8, 13, 64, 100, 100, 900, 1023}
	var h hist.Histogram
	r := obs.NewRecorder(1)
	r.Enable()
	sch, pool := handoffScheme()
	for i, v := range samples {
		h.Record(int64(v))
		r.Observe(obs.HistLeaseHold, int64(v))
		handoff(sch.Guard(i%2), pool, v) // spread over both guards
	}
	o := r.Hist(obs.HistLeaseHold)
	b := sch.Handoffs()
	for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		want := h.Quantile(q)
		if got := o.Quantile(q); got != want {
			t.Errorf("q=%v: recorder histogram = %d, hist.Histogram = %d", q, got, want)
		}
		if got := b.Quantile(q); got != want {
			t.Errorf("q=%v: Scheme.Handoffs = %d, hist.Histogram = %d", q, got, want)
		}
	}
	if got := h.Quantile(0.5); got != 15 { // 7th of 14 samples is 8: bucket [8,16)
		t.Errorf("p50 = %d, want 15", got)
	}
	var emptyH hist.Histogram
	emptyR := obs.NewRecorder(1)
	emptyS, _ := handoffScheme()
	emptyB := emptyS.Handoffs()
	if emptyH.Quantile(0.5) != 0 || emptyR.Hist(obs.HistLeaseHold).Quantile(0.5) != 0 || emptyB.Quantile(0.5) != 0 {
		t.Error("an empty histogram must report 0")
	}
}
