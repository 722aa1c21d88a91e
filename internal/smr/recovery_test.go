package smr_test

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// TestReleaseDrainsSlotCache pins that recovery itself drains a departing
// slot's allocator cache, with no release hook registered: the records a
// Release's reclamation freed reach the pool's shared shards, and the next
// slot's allocations recycle them. Each scheme here frees an unprotected bag
// in one pass.
func TestReleaseDrainsSlotCache(t *testing.T) {
	// One carve batch: the worker's cache holds exactly the records it
	// retires once they are freed, and nothing else.
	const n = 64
	cfg := catalog.DefaultSchemeConfig()
	cfg.Threshold = 4 * n // hp's bag must hold the run until the release
	for _, name := range []string{"nbr+", "hp"} {
		t.Run(name, func(t *testing.T) {
			pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
			sch, err := catalog.NewScheme(name, pool, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := smr.NewRegistry(2)
			reg.Bind(sch)

			worker, err := reg.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			g := sch.Guard(worker.Tid())
			retired := map[uint32]bool{}
			for i := 0; i < n; i++ {
				p, _ := pool.Alloc(worker.Tid())
				g.OnAlloc(p)
				g.BeginOp()
				g.Retire(p)
				g.EndOp()
				retired[p.Idx()] = true
			}
			if st := sch.Stats(); st.Freed != 0 {
				t.Fatalf("%d records freed before the release; the bag must hold them", st.Freed)
			}
			ops := pool.Stats().GlobalOps
			worker.Release()
			if st := sch.Stats(); st.Freed != n {
				t.Fatalf("release freed %d records, want %d", st.Freed, n)
			}
			if got := pool.Stats().GlobalOps; got <= ops {
				t.Fatalf("shared-shard ops %d → %d across the release: the freed records stayed in the departed slot's cache", ops, got)
			}

			next, err := reg.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			if next.Tid() == worker.Tid() {
				t.Fatalf("second lease got the released tid %d, want a fresh slot", next.Tid())
			}
			for i := 0; i < n; i++ {
				if p, _ := pool.Alloc(next.Tid()); !retired[p.Idx()] {
					t.Fatalf("alloc %d on tid %d got slot %d, not one the released slot freed", i, next.Tid(), p.Idx())
				}
			}
			next.Release()
		})
	}
}
