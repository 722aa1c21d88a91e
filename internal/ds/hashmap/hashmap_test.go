package hashmap_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds/hashmap"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "hashmap",
		New: func(threads int) dstest.Instance {
			m := hashmap.New(threads)
			return dstest.Instance{Set: m, Arena: m.Arena()}
		},
		// The oversized-splice input: every chain key hashes to bucket 0 and
		// its split-order key sorts below every dummy, so the next traversal
		// must splice the whole chain in one RetireBatch.
		Chain: func(inst dstest.Instance, g smr.Guard, n int) int {
			return inst.Set.(*hashmap.Map).BuildMarkedChain(g, n)
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*hashmap.Map, smr.Guard) {
	t.Helper()
	m := hashmap.New(1)
	s, err := catalog.NewSchemeFor(scheme, m.Arena(), 1, catalog.DefaultSchemeConfig(), m.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	return m, s.Guard(0)
}

func TestBasics(t *testing.T) {
	m, g := newWithGuard(t, "nbr+")
	if m.Len() != 0 || m.Contains(g, 1) {
		t.Fatal("fresh map must be empty")
	}
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Insert(g, 5) {
		t.Fatal("duplicate insert succeeded")
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(g, 3) || m.Delete(g, 3) {
		t.Fatal("delete semantics wrong")
	}
	if m.Contains(g, 3) || !m.Contains(g, 7) {
		t.Fatal("membership wrong after delete")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestResizeGrowth drives enough single-threaded inserts through the map to
// force several doublings and checks that membership, Len and the structural
// invariants survive the table swaps.
func TestResizeGrowth(t *testing.T) {
	m, g := newWithGuard(t, "nbr+")
	const keys = 400
	for k := uint64(1); k <= keys; k++ {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.Resizes() == 0 {
		t.Fatal("400 inserts over 8 initial buckets must resize")
	}
	if b := m.Buckets(); b <= 8 {
		t.Fatalf("Buckets = %d after resizing", b)
	}
	for k := uint64(1); k <= keys; k++ {
		if !m.Contains(g, k) {
			t.Fatalf("key %d lost across resizes", k)
		}
	}
	if m.Contains(g, keys+1) {
		t.Fatal("absent key reported present")
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
	for k := uint64(1); k <= keys; k += 2 {
		if !m.Delete(g, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if m.Len() != keys/2 {
		t.Fatalf("Len = %d after deleting half, want %d", m.Len(), keys/2)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTopBitPairs pins the one bit of a key the node does not store in its
// record: two keys that differ only in bit 63 share a split-order key and are
// told apart by the header word alone. Each member of a pair must insert,
// be found and delete independently of the other, across a resize, and a
// slot recycled from a deleted k|1<<63 must not hand its header word to the
// k inserted into it.
func TestTopBitPairs(t *testing.T) {
	m := hashmap.New(1)
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 8
	sch, err := catalog.NewSchemeFor("nbr+", m.Arena(), 1, cfg, m.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	g := sch.Guard(0)
	const top = uint64(1) << 63
	in, filler := map[uint64]bool{}, 0 // the pair keys present; other keys present
	check := func(when string) {
		t.Helper()
		for _, k := range dstest.TopBitKeys {
			if m.Contains(g, k) != in[k] {
				t.Fatalf("%s: Contains(%#x) = %v, want %v", when, k, !in[k], in[k])
			}
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if got, want := m.Len(), len(in)+filler; got != want {
			t.Fatalf("%s: Len = %d, want %d", when, got, want)
		}
	}

	// Insert one key at a time: its pair partner must stay absent until its
	// own insert, and a second insert of either must fail.
	for _, k := range dstest.TopBitKeys {
		if !m.Insert(g, k) {
			t.Fatalf("Insert(%#x) failed", k)
		}
		in[k] = true
		check("after insert")
		if m.Insert(g, k) {
			t.Fatalf("duplicate Insert(%#x) succeeded", k)
		}
	}
	// Carry them through resizes.
	for k := uint64(100); k < 200; k++ {
		m.Insert(g, k)
		filler++
	}
	if m.Resizes() == 0 {
		t.Fatal("100 filler inserts over 8 buckets must resize")
	}
	check("after resize")

	// Delete both members of a pair, top-bit one last, and let the scheme
	// free their slots: the next allocations recycle them, the top-bit
	// member's — header word still 1 — among them. Every key inserted into a
	// recycled slot must come out as itself, not as its top-bit partner.
	for _, k := range []uint64{1, 5} {
		if !m.Delete(g, k) || m.Delete(g, k) {
			t.Fatalf("Delete(%#x) semantics wrong", k)
		}
		delete(in, k)
		check("after deleting the low member")
		if !m.Delete(g, k|top) {
			t.Fatalf("Delete(%#x) failed", k|top)
		}
		delete(in, k|top)
		drainStorm(t, sch, 1, "nbr+")
		for _, j := range []uint64{k, 1000 + k, 2000 + k} {
			if !m.Insert(g, j) {
				t.Fatalf("Insert(%#x) into a recycled slot failed", j)
			}
			if !m.Contains(g, j) || m.Contains(g, j|top) {
				t.Fatalf("key %#x inserted into a recycled slot inherited its header word", j)
			}
		}
		in[k] = true
		filler += 2
		check("after refilling the recycled slots")
	}
}

// TestResizeStormBound is the resize-storm variant of the dstest Bound suite:
// insert-heavy traffic over a wide key range drives many doublings mid-churn,
// so whole bucket arrays keep retiring as segments while a sampler races
// Stats().Garbage() against the declared bound — a segment whose weight
// escaped the watermark accounting overshoots here by the array length. The
// storm then drains to Retired == Freed, proving no segment is stranded.
func TestResizeStormBound(t *testing.T) {
	for _, scheme := range catalog.SchemeNames {
		if !catalog.Runnable("hashmap", scheme) {
			continue
		}
		scheme := scheme
		t.Run(scheme, func(t *testing.T) { resizeStorm(t, scheme) })
	}
}

func resizeStorm(t *testing.T, scheme string) {
	const threads = 6
	m := hashmap.New(threads)
	cfg := catalog.SchemeConfig{
		BagSize:    32, // one retired array can span the bag
		LoFraction: 0.5,
		ScanFreq:   4,
		Threshold:  48,
		EraFreq:    16,
	}
	sch, err := catalog.NewSchemeFor(scheme, m.Arena(), threads, cfg, m.Requirements())
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var peak atomic.Uint64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			if g := sch.Stats().Garbage(); g > peak.Load() {
				peak.Store(g)
			}
			runtime.Gosched()
		}
	}()

	span := 1200
	if testing.Short() {
		span = 300
	}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			base := uint64(tid) * 100_000
			for i := 0; i < span; i++ {
				m.Insert(g, base+uint64(i)+1)
				if i%3 == 0 && i > 0 {
					// Delete an earlier key of this thread's range: steady
					// per-node retire traffic alongside the segment bursts.
					m.Delete(g, base+uint64(i/2)+1)
				}
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone

	if r := m.Resizes(); r < 4 {
		t.Fatalf("storm drove only %d resizes; not a storm", r)
	}
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence: freed %d > retired %d", st.Freed, st.Retired)
	}
	if st.Segments == 0 || st.SegRecords == 0 {
		t.Fatalf("resizes never retired a segment (Segments=%d SegRecords=%d)", st.Segments, st.SegRecords)
	}
	if g := st.Garbage(); g > peak.Load() {
		peak.Store(g)
	}
	// GarbageBound is monotone non-decreasing (it grows with the largest
	// segment weight seen), so the final reading dominates every moment a
	// garbage sample was taken.
	if bound := sch.GarbageBound(); bound != smr.Unbounded && peak.Load() > uint64(bound) {
		t.Fatalf("garbage-bound contract violated mid-storm: sampled peak %d > declared bound %d",
			peak.Load(), bound)
	}

	drainStorm(t, sch, threads, scheme)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// drainStorm drives the scheme to full reclamation: Retired == Freed with
// every retired bucket array fanned out. NBR reservation rows persist past
// EndOp; each thread's pass clears its own row, so once every thread has
// drained, nothing retired during the storm stays reserved.
func drainStorm(t *testing.T, sch smr.Scheme, threads int, scheme string) {
	t.Helper()
	if scheme == "none" {
		return // leaky never frees; Retired == Freed is unreachable
	}
	tids := make([]int, threads)
	for tid := range tids {
		tids[tid] = tid
	}
	if sch.Quiesce(tids...) {
		return
	}
	st := sch.Stats()
	t.Fatalf("drain stalled: retired %d, freed %d (%d stranded)",
		st.Retired, st.Freed, st.Retired-st.Freed)
}
