package dstest

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/mem"
)

// slabs returns how many slabs each of the instance's pools has carved.
func slabs(t *testing.T, inst Instance) []uint64 {
	var n []uint64
	for _, st := range poolStats(t, inst) {
		n = append(n, (st.SlabBytes-st.EraBytes)/(mem.SlabSize*uint64(st.SlotSize)))
	}
	return n
}

// fewestSlabs returns the slab count of the instance's least-grown pool.
func fewestSlabs(t *testing.T, inst Instance) uint64 {
	return slices.Min(slabs(t, inst))
}

// Grown covers the growth of a mem.Pool the other suites never reach: none of
// them carves a slab's worth of records, so all of them run on a pool's first
// slab. It has three steps.
//
// Fill, which crosses the boundary mid-traffic: every thread inserts keys of
// its own — so each result is known — deleting every fourth again, next to
// the other threads' keys, until every pool has committed a second slab; the
// slab is committed while the other threads are inside operations.
// Keys go in by descending blocks, shuffled within a block. Small blocks keep
// every insert within a few dozen records of a sorted list's head, which is
// what makes a slab's worth of them affordable under the race detector;
// Factory.ShuffledFill asks for large ones.
//
// Empty: each thread deletes what it kept, newest first, which hands the
// scheme — and through it the pool's free lists — slots on both sides of the
// boundary.
//
// Churn: the concurrent suite's small-range law on that pool.
func Grown(t *testing.T, f Factory, scheme string) {
	const (
		threads = 6
		top     = uint64(1) << 40
	)
	block := uint64(8)
	if f.ShuffledFill {
		block = 1024
	}
	inst := f.New(threads)
	sch := newScheme(t, scheme, inst, threads)
	for kind, n := range slabs(t, inst) {
		if n != 1 {
			t.Fatalf("a fresh structure's pool %d reports %d slabs, want its first one", kind, n)
		}
	}

	kept := make([][]uint64, threads)
	var blocks atomic.Uint64
	each := func(body func(tid int)) {
		var wg sync.WaitGroup
		for tid := 0; tid < threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				body(tid)
			}(tid)
		}
		wg.Wait()
	}

	each(func(tid int) {
		g := sch.Guard(tid)
		rng := rand.New(rand.NewSource(int64(tid) + 1))
		for fewestSlabs(t, inst) < 2 {
			base := top - blocks.Add(1)*block
			for _, j := range rng.Perm(int(block)) {
				key := base + uint64(j)
				if !inst.Set.Insert(g, key) {
					t.Errorf("tid %d: Insert(%d) of a key no one holds failed", tid, key)
					return
				}
				if j%4 != 0 {
					kept[tid] = append(kept[tid], key)
				} else if !inst.Set.Delete(g, key) || inst.Set.Contains(g, key) {
					t.Errorf("tid %d: its own key %d survived its Delete", tid, key)
					return
				}
			}
		}
	})
	resident := 0
	for _, ks := range kept {
		resident += len(ks)
	}
	if t.Failed() {
		return
	}
	if got := inst.Set.Len(); got != resident {
		t.Fatalf("Len = %d after the fill, the threads kept %d", got, resident)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}

	each(func(tid int) {
		g := sch.Guard(tid)
		for i := len(kept[tid]) - 1; i >= 0; i-- {
			if !inst.Set.Delete(g, kept[tid][i]) {
				t.Errorf("tid %d: Delete(%d) of a resident key failed", tid, kept[tid][i])
				return
			}
		}
	})
	if got := inst.Set.Len(); got != 0 || t.Failed() {
		t.Fatalf("Len = %d after every key was deleted", got)
	}

	churn(t, inst, sch, threads, 8)
	if n := fewestSlabs(t, inst); n < 2 {
		t.Fatalf("a pool reports %d slabs after every pool outgrew its first", n)
	}
}
