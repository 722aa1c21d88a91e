package core

import (
	"fmt"
	"testing"

	"nbr/internal/mem"
)

// BenchmarkReclaim measures one full reclamation pass — reservation scan,
// bag compaction, batched free — over a 1024-record bag as a function of the
// scan width N·R. The reservation rows of every peer are fully occupied so
// the scan sorts and searches the worst-case set. The point of the flat
// scratch is visible in -benchmem: 0 allocs/op regardless of N·R.
func BenchmarkReclaim(b *testing.B) {
	const bag = 1024
	for _, tc := range []struct{ threads, slots int }{
		{2, 4}, {8, 4}, {32, 4}, {64, 8},
	} {
		b.Run(fmt.Sprintf("N%d_R%d", tc.threads, tc.slots), func(b *testing.B) {
			pool := mem.NewPool[rec](mem.Config{MaxThreads: tc.threads})
			s := New(pool, tc.threads, Config{BagSize: 2 * bag, Slots: tc.slots})
			for tid := 1; tid < tc.threads; tid++ {
				g := s.Guard(tid)
				g.BeginRead()
				for i := 0; i < tc.slots; i++ {
					p, _ := pool.Alloc(tid)
					g.Reserve(i, p)
				}
				g.EndRead()
			}
			g := s.gs[0]
			hs := make([]mem.Ptr, bag)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range hs {
					hs[j], _ = pool.Alloc(0)
				}
				for _, h := range hs {
					g.Retire(h)
				}
				g.reclaimFreeable(len(g.Bag))
			}
		})
	}
}

// BenchmarkRetireBatch measures the batched retire path end to end: a
// subtree-sized batch lands in the bag with one watermark check, and the
// reclamation it periodically triggers reuses the flat scratch — so the
// whole alloc/retire/reclaim cycle runs at 0 allocs/op for any batch size.
func BenchmarkRetireBatch(b *testing.B) {
	for _, size := range []int{2, 16, 128} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
			s := New(pool, 2, Config{BagSize: 1024})
			g := s.gs[0]
			batch := make([]mem.Ptr, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j], _ = pool.Alloc(0)
				}
				g.RetireBatch(batch)
			}
		})
	}
}

// BenchmarkRetire measures the per-record Retire fast path (no reclamation
// triggered): the bound the read-path-is-free claim leans on.
func BenchmarkRetire(b *testing.B) {
	for _, plus := range []bool{false, true} {
		name := "nbr"
		if plus {
			name = "nbr+"
		}
		b.Run(name, func(b *testing.B) {
			pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
			s := New(pool, 2, Config{Plus: plus, BagSize: 1 << 20})
			g := s.gs[0]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h, _ := pool.Alloc(0)
				g.Retire(h)
				if len(g.Bag) >= 1<<18 { // keep the bag below the watermarks
					b.StopTimer()
					g.reclaimFreeable(len(g.Bag))
					g.cleanUp()
					b.StartTimer()
				}
			}
		})
	}
}
