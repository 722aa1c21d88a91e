package mem

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkAllocFree measures the per-record hot path: pop from the thread
// cache, bump the generation, push back. This is the jemalloc-tcache
// analogue every scheme's free path pays.
func BenchmarkAllocFree(b *testing.B) {
	p := NewPool[rec](Config{MaxThreads: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, _ := p.Alloc(0)
		p.Free(0, h)
	}
}

// BenchmarkAllocFreeBatch measures churn with a working set deeper than the
// LIFO top, touching the cache array.
func BenchmarkAllocFreeBatch(b *testing.B) {
	p := NewPool[rec](Config{MaxThreads: 1, CacheSize: 256})
	var hs [64]Ptr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range hs {
			hs[j], _ = p.Alloc(0)
		}
		for j := range hs {
			p.Free(0, hs[j])
		}
	}
}

// BenchmarkGet measures the validated dereference (generation compare).
func BenchmarkGet(b *testing.B) {
	p := NewPool[rec](Config{MaxThreads: 1})
	h, _ := p.Alloc(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := p.Get(h); !ok {
			b.Fatal("live handle failed")
		}
	}
}

// BenchmarkResolveChain measures what following a link costs at this layer: a
// dependent chase, the read path's Slot-copy-validate per hop, through a
// shuffled ring of 10 000 records (more than L1 holds, as a traversed
// structure is). "single" runs on a pool still on its first slab; "grown"
// runs the same ring, at the same addresses, after the pool committed a
// second one. Both resolve next → address arithmetic → record, so the two
// rows should read alike: a gap between them is a cost growth added to the
// resolution, and a move in both is a change to the resolution itself.
func BenchmarkResolveChain(b *testing.B) {
	const n = 10_000
	p := NewPool[rec](Config{MaxThreads: 1})
	hs := make([]Ptr, n)
	for i := range hs {
		hs[i], _ = p.Alloc(0)
	}
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i, at := range perm {
		p.Raw(hs[at]).next = uint64(hs[perm[(i+1)%n]])
	}
	chase := func(b *testing.B) {
		h := hs[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, g := p.Slot(h)
			next := Ptr(v.next)
			if !g.Is(h) {
				b.Fatalf("hop %d: %v went stale", i, h)
			}
			h = next
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/hop")
	}
	b.Run("single", chase)
	outgrow(p, 0)
	b.Run("grown", chase)
}

// BenchmarkCrossThreadChurn measures contention on the shared free list —
// the "reclamation burst" bottleneck the paper attributes to DEBRA. Shards: 1
// pins the deliberately contended configuration now that the default shards.
func BenchmarkCrossThreadChurn(b *testing.B) {
	const threads = 4
	p := NewPool[rec](Config{MaxThreads: threads, CacheSize: 8, Shards: 1})
	var wg sync.WaitGroup
	per := b.N/threads + 1
	b.ReportAllocs()
	b.ResetTimer()
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h, _ := p.Alloc(tid)
				p.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
}

// BenchmarkFreeBurst measures reclamation-burst throughput — every goroutine
// repeatedly allocates a bag-sized batch and returns it with one FreeBatch —
// across shard counts. Shards: 1 is the paper's DEBRA-bottleneck
// configuration; the sweep shows how sharding removes it.
func BenchmarkFreeBurst(b *testing.B) {
	const (
		goroutines = 8
		burst      = 256
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p := NewPool[rec](Config{MaxThreads: goroutines, CacheSize: 64, Shards: shards})
			b.ReportAllocs()
			b.ResetTimer()
			BurstChurn(p, goroutines, burst, b.N)
		})
	}
}
