package nbr_test

import (
	"context"
	"runtime"
	"testing"

	"nbr"
)

// setupRuntime builds what one session-churn system builds before its first
// timed operation: a Runtime, a lazy list and a DGT tree attached to it, and
// one With session that inserts into both, which materializes the scheme.
func setupRuntime(tb testing.TB, maxThreads int) *nbr.Runtime {
	tb.Helper()
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: maxThreads, BagSize: 512})
	if err != nil {
		tb.Fatal(err)
	}
	list, err := rt.NewSet("lazylist")
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := rt.NewSet("dgt")
	if err != nil {
		tb.Fatal(err)
	}
	if err := rt.With(context.Background(), func(l *nbr.Lease) error {
		list.Insert(l, 1)
		tree.Insert(l, 1)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return rt
}

// setupBytes is the Go heap one setupRuntime allocates, the least of a few
// runs so a stray background allocation does not count.
func setupBytes(t *testing.T, maxThreads int) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rt := setupRuntime(t, maxThreads)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(rt)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestRuntimeSetupPaysPerUse: a slot nobody leased and a recorder nobody
// enabled cost next to nothing at set-up. The recorder builds its event
// rings on the first Enable, and a guard builds its sweep scratch, its scan
// set and its NBR+ timestamp snapshot when it first needs them, so each of
// 60 more slots adds only the rows every slot needs (its guard, reservation
// row, signal state, allocator caches): about 1.8 KB. A ring is 4 KB and a
// BagSize-deep sweep scratch 4 KB, so either built up front breaks the
// bound, and so does an N-wide scan scratch per guard at 64 slots.
func TestRuntimeSetupPaysPerUse(t *testing.T) {
	const small, large, perSlot = 4, 64, 2560
	s, l := setupBytes(t, small), setupBytes(t, large)
	t.Logf("set-up allocates %d B at %d slots, %d B at %d slots", s, small, l, large)
	if extra := (int64(l) - int64(s)) / (large - small); extra > perSlot {
		t.Fatalf("each unused slot costs %d B of set-up heap, want at most %d", extra, perSlot)
	}
}

// BenchmarkRuntimeSetup times session-churn's set-up — NewRuntime at 12
// slots and BagSize 512, a lazy list and a DGT tree, one With session —
// with its heap cost per set-up.
func BenchmarkRuntimeSetup(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		setupRuntime(b, 12)
	}
}
