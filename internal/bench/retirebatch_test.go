package bench

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/hist"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

type retireRec struct{ _ [2]uint64 }

// retireCfg aligns every scheme's trigger cadence on small thresholds so the
// equivalence runs exercise reclamation repeatedly. The batch sizes used by
// the tests divide BagSize, Threshold, Threshold/4 and EraFreq, so batch
// boundaries land exactly on the per-record trigger points.
func retireCfg() catalog.SchemeConfig {
	return catalog.SchemeConfig{
		BagSize:    64,
		LoFraction: 0.5,
		ScanFreq:   4,
		Threshold:  64,
		EraFreq:    16,
	}
}

// TestRetireBatchEquivalence is the property test for the RetireBatch seam:
// for every scheme, feeding records through RetireBatch must be
// observationally equivalent to a per-record Retire loop — identical
// smr.Stats (retired, freed, scans, signals, advances) and identical
// allocator accounting. Every third handle carries the Harris mark bit to
// check batch retire strips marks exactly like Retire does.
func TestRetireBatchEquivalence(t *testing.T) {
	const total, threads = 192, 2
	run := func(t *testing.T, scheme string, batch int, batched bool) (smr.Stats, mem.Stats, []uint64) {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
		sch, err := catalog.NewScheme(scheme, pool, threads, retireCfg())
		if err != nil {
			t.Fatal(err)
		}
		g := sch.Guard(0)
		buf := make([]mem.Ptr, 0, batch)
		for i := 0; i < total; i++ {
			p, _ := pool.Alloc(0)
			g.OnAlloc(p)
			if i%3 == 0 {
				p = p.WithMark()
			}
			if !batched {
				g.Retire(p)
				continue
			}
			buf = append(buf, p)
			if len(buf) == batch {
				g.RetireBatch(buf)
				buf = buf[:0]
			}
		}
		h := sch.Handoffs()
		return sch.Stats(), pool.Stats(), h.Counts()
	}
	for _, scheme := range catalog.SchemeNames {
		for _, batch := range []int{2, 8, 16} {
			t.Run(fmt.Sprintf("%s/batch%d", scheme, batch), func(t *testing.T) {
				loopS, loopM, loopH := run(t, scheme, batch, false)
				batchS, batchM, batchH := run(t, scheme, batch, true)
				if loopS != batchS {
					t.Fatalf("stats diverge:\n  loop  %+v\n  batch %+v", loopS, batchS)
				}
				if loopM.Allocs != batchM.Allocs || loopM.Frees != batchM.Frees {
					t.Fatalf("allocator accounting diverges:\n  loop  allocs=%d frees=%d\n  batch allocs=%d frees=%d",
						loopM.Allocs, loopM.Frees, batchM.Allocs, batchM.Frees)
				}
				// The handoff histogram is what must differ: the loop
				// records `total` handoffs of size 1, the batched run
				// total/batch handoffs of size `batch`.
				expLoop := []uint64{0, total} // bitlen(1) == 1
				expBatch := make([]uint64, bits.Len(uint(batch))+1)
				expBatch[bits.Len(uint(batch))] = total / uint64(batch)
				if !slices.Equal(loopH, expLoop) {
					t.Fatalf("loop handoff histogram = %v, want %v", loopH, expLoop)
				}
				if !slices.Equal(batchH, expBatch) {
					t.Fatalf("batch handoff histogram = %v, want %v", batchH, expBatch)
				}
			})
		}
	}
}

// TestRetireSplitEquivalence is the batch-split property test: retiring the
// same records through one oversized RetireBatch, through misaligned chunked
// RetireBatch calls, or through a per-record Retire loop must be stats-exact
// for every scheme whose trigger is a pure bag-length condition — the split
// paths fire their scans and signals at exactly the bag lengths the loop
// hits, whatever the handoff shape. qsbr/rcu amortize their sweep over a
// separate retire counter whose trigger can land mid-chunk, so for them the
// chunk sizes must divide the amortization period (as the structures'
// real handoffs do); misaligned shapes are exercised for the rest.
func TestRetireSplitEquivalence(t *testing.T) {
	const total, threads = 300, 2
	run := func(t *testing.T, scheme string, batch int) (smr.Stats, mem.Stats, hist.Histogram) {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
		sch, err := catalog.NewScheme(scheme, pool, threads, retireCfg())
		if err != nil {
			t.Fatal(err)
		}
		g := sch.Guard(0)
		buf := make([]mem.Ptr, 0, batch)
		for i := 0; i < total; i++ {
			p, _ := pool.Alloc(0)
			g.OnAlloc(p)
			if i%3 == 0 {
				p = p.WithMark()
			}
			if batch == 1 {
				g.Retire(p)
				continue
			}
			buf = append(buf, p)
			if len(buf) == batch || i == total-1 {
				g.RetireBatch(buf)
				buf = buf[:0]
			}
		}
		return sch.Stats(), pool.Stats(), sch.Handoffs()
	}
	shapes := map[string][]int{
		// Misaligned chunks and one whole-splice handoff: exactness must
		// hold for arbitrary shapes on the split schemes.
		"default": {7, 31, 64, total},
		// Aligned with Threshold/4 = 16, the qsbr/rcu sweep amortization.
		"qsbr": {4, 16}, "rcu": {4, 16},
	}
	for _, scheme := range catalog.SchemeNames {
		sizes, ok := shapes[scheme]
		if !ok {
			sizes = shapes["default"]
		}
		t.Run(scheme, func(t *testing.T) {
			loopS, loopM, _ := run(t, scheme, 1)
			for _, batch := range sizes {
				gotS, gotM, gotH := run(t, scheme, batch)
				if loopS != gotS {
					t.Fatalf("batch %d: stats diverge\n  loop  %+v\n  batch %+v", batch, loopS, gotS)
				}
				// Only the handoff shape differs: ⌈total/batch⌉ handoffs,
				// none longer than the batch.
				wantN, wantMax := (total+batch-1)/batch, min(batch, total)
				if n, m := gotH.Count(), gotH.Max(); n != uint64(wantN) || m != int64(wantMax) {
					t.Fatalf("batch %d: %d handoffs, largest %d; want %d, largest %d", batch, n, m, wantN, wantMax)
				}
				if loopM.Allocs != gotM.Allocs || loopM.Frees != gotM.Frees {
					t.Fatalf("batch %d: allocator accounting diverges: loop frees=%d batch frees=%d",
						batch, loopM.Frees, gotM.Frees)
				}
			}
		})
	}
}

// TestGarbageBoundDeclarations pins the GarbageBound contract's shape for
// every scheme: the P2 claimants declare a finite positive bound that grows
// with the thread count, everyone else the Unbounded sentinel.
func TestGarbageBoundDeclarations(t *testing.T) {
	bounded := map[string]bool{"nbr": true, "nbr+": true, "hp": true, "he": true, "ibr": true}
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			bound := func(threads int) int {
				pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
				sch, err := catalog.NewScheme(scheme, pool, threads, retireCfg())
				if err != nil {
					t.Fatal(err)
				}
				return sch.GarbageBound()
			}
			b2, b4 := bound(2), bound(4)
			if !bounded[scheme] {
				if b2 != smr.Unbounded || b4 != smr.Unbounded {
					t.Fatalf("want Unbounded sentinel, got %d / %d", b2, b4)
				}
				return
			}
			if b2 <= 0 || b4 <= 0 {
				t.Fatalf("bounded scheme declared non-positive bound: %d / %d", b2, b4)
			}
			if b4 <= b2 {
				t.Fatalf("bound must grow with thread count: N=2 → %d, N=4 → %d", b2, b4)
			}
		})
	}
}

// TestRetireBatchEmptyIsNoop checks the degenerate batch for every scheme.
func TestRetireBatchEmptyIsNoop(t *testing.T) {
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			pool := mem.NewPool[retireRec](mem.Config{MaxThreads: 1})
			sch, err := catalog.NewScheme(scheme, pool, 1, retireCfg())
			if err != nil {
				t.Fatal(err)
			}
			sch.Guard(0).RetireBatch(nil)
			sch.Guard(0).RetireBatch([]mem.Ptr{})
			if st := sch.Stats(); st.Retired != 0 {
				t.Fatalf("empty batch retired %d", st.Retired)
			}
		})
	}
}

// TestRetireBatchConcurrentRace hammers mixed Retire / RetireBatch traffic
// from every thread of every scheme. The pool's generation CAS turns any
// double free into a panic, so an unsafe batch path cannot pass silently,
// and the race detector covers the shared bookkeeping (era clocks, epoch
// rotation, signal broadcast, shard flushes).
func TestRetireBatchConcurrentRace(t *testing.T) {
	const threads, rounds, batch = 4, 50, 16
	for _, scheme := range catalog.SchemeNames {
		t.Run(scheme, func(t *testing.T) {
			pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads, CacheSize: 16, Shards: 4})
			sch, err := catalog.NewScheme(scheme, pool, threads, retireCfg())
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for tid := 0; tid < threads; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					g := sch.Guard(tid)
					buf := make([]mem.Ptr, 0, batch)
					for r := 0; r < rounds; r++ {
						buf = buf[:0]
						for i := 0; i < batch; i++ {
							p, _ := pool.Alloc(tid)
							g.OnAlloc(p)
							buf = append(buf, p)
						}
						if r%2 == 0 {
							g.RetireBatch(buf)
						} else {
							for _, p := range buf {
								g.Retire(p)
							}
						}
					}
				}(tid)
			}
			wg.Wait()
			st := sch.Stats()
			if want := uint64(threads * rounds * batch); st.Retired != want {
				t.Fatalf("retired = %d, want %d", st.Retired, want)
			}
			if st.Freed > st.Retired {
				t.Fatalf("freed %d > retired %d", st.Freed, st.Retired)
			}
		})
	}
}
