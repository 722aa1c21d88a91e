package smr

import (
	"testing"

	"nbr/internal/mem"
)

// countingArena stubs mem.Arena to observe the reclaim sweep's arena
// traffic; only FreeBatch is expected to be called.
type countingArena struct {
	freeBatches int
	freed       int
}

func (a *countingArena) Free(int, mem.Ptr) { panic("the sweep must batch frees") }
func (a *countingArena) FreeBatch(_ int, ps []mem.Ptr) {
	a.freeBatches++
	a.freed += len(ps)
}
func (a *countingArena) Hdr(mem.Ptr) *mem.Hdr { return nil }
func (a *countingArena) Valid(mem.Ptr) bool   { return true }
func (a *countingArena) SizeCache(int, int)   {}
func (a *countingArena) DrainCache(int)       {}

// bareGuard is the least a guard supplies: the kernel's Limbo plus the two
// Policy methods without defaults.
type bareGuard struct{ Limbo }

func (g *bareGuard) Retire(p mem.Ptr) { g.Push(p) }
func (g *bareGuard) FullPass()        {}

// TestSweepBagFruitlessScanSkipsArena pins the empty-batch fix: a sweep in
// which every bag record is reserved must not touch the arena at all — the
// free path is the allocator's contended side, and reclamation under
// pressure scans fruitlessly often.
func TestSweepBagFruitlessScanSkipsArena(t *testing.T) {
	arena := &countingArena{}
	var k Kernel
	k.Init(Spec{Name: "test", Arena: arena, Threads: 1})
	g := &bareGuard{}
	k.Bind(0, &g.Limbo, g)

	slots := make([]Pad64, 4)
	for i := 0; i < 4; i++ {
		p := mem.Ptr(uint64(i)*2 + 2)
		slots[i].Store(uint64(p))
		g.Retire(p)
	}
	var set ScanSet
	collect := func() { set.CollectRows(slots, len(slots), k.ActiveMask) }

	g.Scan(len(g.Bag), collect, set.Contains)
	if st := k.Stats(); st.Freed != 0 || arena.freed != 0 {
		t.Fatalf("fully reserved bag freed %d records (arena saw %d)", st.Freed, arena.freed)
	}
	if arena.freeBatches != 0 {
		t.Fatalf("fruitless sweep still called FreeBatch %d time(s)", arena.freeBatches)
	}
	if len(g.Bag) != 4 || g.BagW != 4 {
		t.Fatalf("survivors = %d (weight %d), want 4", len(g.Bag), g.BagW)
	}

	// Clearing one reservation makes the next sweep free exactly that
	// record through exactly one batch.
	slots[2].Store(0)
	g.Scan(len(g.Bag), collect, set.Contains)
	if st := k.Stats(); st.Freed != 1 || arena.freeBatches != 1 || arena.freed != 1 {
		t.Fatalf("after unreserving one record: freed=%d batches=%d arenaFreed=%d",
			st.Freed, arena.freeBatches, arena.freed)
	}
	if len(g.Bag) != 3 || g.BagW != 3 {
		t.Fatalf("survivors = %d (weight %d), want 3", len(g.Bag), g.BagW)
	}
	if st := k.Stats(); st.Scans != 2 {
		t.Fatalf("scans = %d, want 2", st.Scans)
	}
}
