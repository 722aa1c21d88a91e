package hist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Max() != 0 || h.Counts() != nil {
		t.Fatal("empty histogram must report zeros")
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty q%v = %d, want 0", q, got)
		}
	}
}

func TestSingleValue(t *testing.T) {
	var h Histogram
	h.Record(1000)
	if h.Count() != 1 || h.Max() != 1000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if q := h.Quantile(0.99); q != 1000 {
		t.Fatalf("q99 = %d, want the observed max", q)
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Max() != 0 || h.Quantile(1) != 0 || !slices.Equal(h.Counts(), []uint64{1}) {
		t.Fatal("negative values must clamp to zero")
	}
}

// TestQuantileNearestRank pins the quantile contract: the nearest-rank
// sample's bucket, reported as the largest value that bucket holds
// (inclusive edge, 2^i − 1) and tightened to the exact maximum.
func TestQuantileNearestRank(t *testing.T) {
	fib := []int64{1, 1, 1, 2, 3, 5, 8, 8, 13, 64, 100, 100, 900, 1023}
	for _, tc := range []struct {
		name    string
		samples []int64
		q       []float64
		want    []int64
	}{
		// One small and one large handoff: the median is the small one.
		{"nearest rank", []int64{1, 1000}, []float64{0, 0.5, 0.99, 1}, []int64{1, 1, 1000, 1000}},
		// 90 samples in [64,128), 10 in [4096,8192): the median reads the
		// bucket's top, the tail the exact maximum.
		{"bucket edge", append(slices.Repeat([]int64{100}, 90), slices.Repeat([]int64{5000}, 10)...),
			[]float64{0.5, 0.9, 0.99}, []int64{127, 127, 5000}},
		{"max tightening", []int64{2, 2, 2}, []float64{0.5, 1}, []int64{2, 2}},
		// Out-of-range q clamps to the first and the last rank.
		{"spread", fib, []float64{-1, 0, 0.25, 0.5, 0.75, 0.9, 1, 2},
			[]int64{1, 1, 3, 15, 127, 1023, 1023, 1023}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Histogram
			for _, v := range tc.samples {
				h.Record(v)
			}
			for i, q := range tc.q {
				if got := h.Quantile(q); got != tc.want[i] {
					t.Errorf("q%v = %d, want %d", q, got, tc.want[i])
				}
			}
		})
	}
}

// TestRecordBuckets: bucket i counts the values of bit length i, from 0 up to
// the largest int64, and the count is the buckets' sum.
func TestRecordBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, math.MaxInt64} {
		h.Record(v)
	}
	want := make([]uint64, Buckets)
	want[0], want[1], want[2], want[63] = 1, 1, 2, 1
	if got := h.Counts(); !slices.Equal(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if h.Count() != 5 || h.Max() != math.MaxInt64 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
}

// TestConcurrentRecord: writers Record into one histogram while a reader
// polls Count, Quantile and Max; run under -race it is the check that the
// shared histogram needs no owner. The totals must come out exact.
func TestConcurrentRecord(t *testing.T) {
	const writers, perWriter = 4, 20000
	var h Histogram
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for n := uint64(0); n < writers*perWriter; n = h.Count() {
			if n < last {
				t.Errorf("count went back from %d to %d", last, n)
				return
			}
			if q, m := h.Quantile(0.99), h.Max(); q > m {
				t.Errorf("q99 %d above the max %d read after it", q, m)
				return
			}
			last = n
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Record(int64(w*perWriter + i))
			}
		}()
	}
	wg.Wait()
	<-done
	if h.Count() != writers*perWriter || h.Max() != writers*perWriter-1 {
		t.Fatalf("count=%d max=%d, want %d and %d", h.Count(), h.Max(), writers*perWriter, writers*perWriter-1)
	}
	var sum uint64
	for _, c := range h.Counts() {
		sum += c
	}
	if sum != writers*perWriter || h.Quantile(1) != writers*perWriter-1 {
		t.Fatalf("buckets sum to %d, q1 = %d", sum, h.Quantile(1))
	}
}

func TestQuantileBounds(t *testing.T) {
	var h Histogram
	values := make([]int64, 0, 10000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(1 << 20))
		values = append(values, v)
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := values[int(q*float64(len(values)))]
		got := h.Quantile(q)
		if got < exact {
			t.Fatalf("q%.2f = %d below exact %d (quantile must be an upper bound)", q, got, exact)
		}
		if got > 4*exact+4 {
			t.Fatalf("q%.2f = %d too loose vs exact %d", q, got, exact)
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		h.Record(int64(rng.Intn(1 << 30)))
	}
	prev := int64(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %.2f: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(10)
		b.Record(1 << 20)
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() != 1<<20 {
		t.Fatalf("merged max = %d", a.Max())
	}
	if q := a.Quantile(0.25); q > 16 {
		t.Fatalf("low quantile contaminated: %d", q)
	}
	if q := a.Quantile(0.9); q < 1<<20 {
		t.Fatalf("high quantile lost: %d", q)
	}
}

func TestQuantileClampsRange(t *testing.T) {
	var h Histogram
	h.Record(7)
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Fatal("out-of-range quantiles must clamp")
	}
}

func TestQuickCountMatches(t *testing.T) {
	f := func(vs []int16) bool {
		var h Histogram
		for _, v := range vs {
			h.Record(int64(v))
		}
		return h.Count() == uint64(len(vs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMaxIsUpperBound(t *testing.T) {
	f := func(vs []uint32) bool {
		var h Histogram
		var max int64
		for _, v := range vs {
			h.Record(int64(v))
			if int64(v) > max {
				max = int64(v)
			}
		}
		return h.Max() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}
