package mem

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"
)

type rec struct {
	key  uint64
	next uint64
}

func newTestPool(threads int) *Pool[rec] {
	return NewPool[rec](Config{MaxThreads: threads, CacheSize: 16})
}

func TestPtrPackRoundTrip(t *testing.T) {
	p := pack(12345, 678, 0, 0)
	if p.Idx() != 12345 || p.Gen() != 678 {
		t.Fatalf("roundtrip got idx=%d gen=%d", p.Idx(), p.Gen())
	}
	if p.Marked() {
		t.Fatal("fresh handle should be unmarked")
	}
}

func TestPtrMarkBit(t *testing.T) {
	p := pack(7, 3, 0, 0)
	m := p.WithMark()
	if !m.Marked() {
		t.Fatal("WithMark did not set mark")
	}
	if m.Unmarked() != p {
		t.Fatal("Unmarked did not restore original")
	}
	if m.Idx() != p.Idx() || m.Gen() != p.Gen() {
		t.Fatal("mark bit disturbed idx/gen")
	}
	if m.IsNull() {
		t.Fatal("marked non-null handle reported null")
	}
}

func TestNullHandle(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null must be null")
	}
	if !Null.WithMark().IsNull() {
		t.Fatal("marked Null must still be null")
	}
	if Null.String() != "mem.Null" {
		t.Fatalf("Null string: %q", Null.String())
	}
}

// TestPtrQuickPacking: index, generation, tag, kind and mark are independent
// fields — each reads back what was packed, whatever the others hold, and
// setting the mark disturbs none of them.
func TestPtrQuickPacking(t *testing.T) {
	f := func(idx uint32, gen uint32, tag uint8, kind bool) bool {
		gen &= uint32(genMask)
		idx &= slotIdxMask
		tg, k := int(tag)%MaxTags, 0
		if kind {
			k = 1
		}
		p := pack(idx, gen, tg, k)
		for _, q := range []Ptr{p, p.WithMark()} {
			if q.Idx() != idx || q.Gen() != gen || q.ArenaTag() != tg || q.Kind() != k || q.Unmarked() != p {
				return false
			}
		}
		return !p.Marked() && p.WithMark().Marked()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if p := pack(slotIdxMask, uint32(genMask), MaxTags-1, 1).WithMark(); p.Idx() != slotIdxMask ||
		p.Gen() != uint32(genMask) || p.ArenaTag() != MaxTags-1 || p.Kind() != 1 || uint64(p) != ^uint64(0) {
		t.Fatalf("every field at its maximum reads back idx %d gen %d tag %d kind %d (%#x)",
			p.Idx(), p.Gen(), p.ArenaTag(), p.Kind(), uint64(p))
	}
}

func TestAllocNeverNull(t *testing.T) {
	p := newTestPool(1)
	for i := 0; i < 1000; i++ {
		h, _ := p.Alloc(0)
		if h.IsNull() {
			t.Fatalf("alloc %d returned null handle", i)
		}
	}
}

func TestAllocGenIsOdd(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	if h.Gen()%2 != 1 {
		t.Fatalf("live generation must be odd, got %d", h.Gen())
	}
}

func TestAllocFreeRealloc(t *testing.T) {
	p := newTestPool(1)
	h1, v := p.Alloc(0)
	v.key = 42
	p.Free(0, h1)
	if p.Valid(h1) {
		t.Fatal("freed handle still valid")
	}
	h2, _ := p.Alloc(0)
	if h2.Idx() != h1.Idx() {
		t.Fatalf("expected LIFO reuse of slot %d, got %d", h1.Idx(), h2.Idx())
	}
	if h2.Gen() == h1.Gen() {
		t.Fatal("reallocation did not bump generation")
	}
	if !p.Valid(h2) || p.Valid(h1) {
		t.Fatal("validity must follow generation")
	}
}

func TestGetStaleAfterFree(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	if _, ok := p.Get(h); !ok {
		t.Fatal("live handle must Get")
	}
	p.Free(0, h)
	if _, ok := p.Get(h); ok {
		t.Fatal("stale handle must not Get")
	}
	if _, ok := p.Get(Null); ok {
		t.Fatal("null handle must not Get")
	}
}

func TestMustGetPanicsOnStale(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	p.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on stale handle must panic")
		}
	}()
	p.MustGet(h)
}

func TestDoubleFreePanics(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	p.Free(0, h)
	defer func() {
		if recover() == nil {
			t.Fatal("double free must panic")
		}
	}()
	p.Free(0, h)
}

func TestFreeNullPanics(t *testing.T) {
	p := newTestPool(1)
	defer func() {
		if recover() == nil {
			t.Fatal("free of Null must panic")
		}
	}()
	p.Free(0, Null)
}

func TestFreeMarkedHandle(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	p.Free(0, h.WithMark()) // mark bit must be ignored by the allocator
	if p.Valid(h) {
		t.Fatal("free through marked handle did not free the slot")
	}
}

func TestHdrEras(t *testing.T) {
	p := newTestPool(1)
	h, _ := p.Alloc(0)
	hd := p.Hdr(h)
	hd.SetBirth(7)
	hd.SetRetire(11)
	if hd.Birth() != 7 || hd.Retire() != 11 {
		t.Fatalf("era roundtrip got birth=%d retire=%d", hd.Birth(), hd.Retire())
	}
}

func TestStatsAccounting(t *testing.T) {
	p := newTestPool(2)
	var hs []Ptr
	for i := 0; i < 100; i++ {
		h, _ := p.Alloc(i % 2)
		hs = append(hs, h)
	}
	for _, h := range hs[:40] {
		p.Free(1, h)
	}
	st := p.Stats()
	if st.Allocs != 100 || st.Frees != 40 || st.Live != 60 {
		t.Fatalf("stats = %+v", st)
	}
	// No scheme asked for a header: a record costs its slot and nothing else.
	if st.EraBytes != 0 || st.LiveBytes != 60*int64(st.SlotSize) {
		t.Fatalf("LiveBytes = %d, EraBytes = %d, slot %d", st.LiveBytes, st.EraBytes, st.SlotSize)
	}
	if st.SlabBytes != SlabSize*uint64(st.SlotSize) {
		t.Fatalf("SlabBytes = %d, want one slab of %d-byte slots", st.SlabBytes, st.SlotSize)
	}
	// The first header commits the headers of the pool's slab, and every
	// live record is then charged its 16-byte header.
	p.Hdr(hs[99]).SetBirth(1)
	era := p.Stats()
	if era.EraBytes != SlabSize*16 {
		t.Fatalf("EraBytes = %d, want one slab of %d headers", era.EraBytes, SlabSize)
	}
	if era.LiveBytes != 60*int64(st.SlotSize+16) {
		t.Fatalf("LiveBytes = %d with headers, want 60 records of %d+16 bytes", era.LiveBytes, st.SlotSize)
	}
	if era.SlabBytes != st.SlabBytes+era.EraBytes {
		t.Fatalf("SlabBytes = %d, want slabs %d + headers %d", era.SlabBytes, st.SlabBytes, era.EraBytes)
	}
}

// TestSlotLayout pins the inline footprint of a record: an 8-byte header —
// the generation word and the record-owned word, both addressable — and the
// record, no era header. The two shapes are the lazy list's and the DGT
// tree's nodes, whose lock and flag live in the header word: 24 and 32 bytes
// per slot.
func TestSlotLayout(t *testing.T) {
	type listNode struct{ key, next uint64 }
	type treeNode struct{ key, left, right uint64 }
	var g Gen
	if unsafe.Sizeof(g) != 8 || unsafe.Offsetof(g.v) != 0 || unsafe.Offsetof(g.Word) != 4 {
		t.Fatalf("Gen is %d bytes with the words at %d and %d, want 8 bytes, words at 0 and 4",
			unsafe.Sizeof(g), unsafe.Offsetof(g.v), unsafe.Offsetof(g.Word))
	}
	if got := unsafe.Sizeof(slot[listNode]{}); got != 24 || got != 8+unsafe.Sizeof(listNode{}) {
		t.Fatalf("slot[listNode] is %d bytes, want 8+%d = 24", got, unsafe.Sizeof(listNode{}))
	}
	if got := unsafe.Sizeof(slot[treeNode]{}); got != 32 || got != 8+unsafe.Sizeof(treeNode{}) {
		t.Fatalf("slot[treeNode] is %d bytes, want 8+%d = 32", got, unsafe.Sizeof(treeNode{}))
	}
	if got := unsafe.Sizeof(slot[uint32]{}); got != 8+4 {
		t.Fatalf("slot[uint32] is %d bytes, want 8+4", got)
	}
	if got := unsafe.Sizeof(Hdr{}); got != 16 {
		t.Fatalf("Hdr is %d bytes, want 16", got)
	}
}

// TestHeaderWordIsTheRecords checks the record-owned word's contract: the
// pool never writes it (it survives the generation bumps of Free and Alloc,
// so a structure must initialise it), MustSlot reaches it on a live handle,
// and MustSlot keeps MustGet's panic on a stale or nil one.
func TestHeaderWordIsTheRecords(t *testing.T) {
	p := newTestPool(1)
	h, v := p.Alloc(0)
	n, hdr := p.MustSlot(h)
	if n != v || !hdr.Is(h) {
		t.Fatal("MustSlot must address the allocated record and its current header")
	}
	hdr.Word.Store(0xdeadbeef)
	p.Free(0, h)
	h2, _ := p.Alloc(0)
	if h2.Idx() != h.Idx() {
		t.Fatalf("expected the freed slot back, got idx %d after %d", h2.Idx(), h.Idx())
	}
	if _, hdr2 := p.MustSlot(h2); hdr2 != hdr || hdr2.Word.Load() != 0xdeadbeef {
		t.Fatal("the pool must leave the record-owned word alone across Free and Alloc")
	}
	for _, stale := range []Ptr{h, Null} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("MustSlot(%v) must panic", stale)
				}
			}()
			p.MustSlot(stale)
		}()
	}
}

// TestSlotOneResolution checks the one-lookup accessor against the two it
// replaces on the read path: same record as Raw, same verdict as Valid,
// before and after the free.
func TestSlotOneResolution(t *testing.T) {
	p := newTestPool(1)
	h, v := p.Alloc(0)
	v.key = 9
	n, gen := p.Slot(h.WithMark())
	if n != p.Raw(h) || n.key != 9 {
		t.Fatal("Slot must address the record Raw addresses")
	}
	if !gen.Is(h) || !p.Valid(h) {
		t.Fatal("a live handle must be current")
	}
	p.Free(0, h)
	if gen.Is(h) || p.Valid(h) {
		t.Fatal("a freed handle must be stale through the same generation word")
	}
	h2, _ := p.Alloc(0)
	if h2.Idx() != h.Idx() {
		t.Fatalf("expected the slot to be recycled (idx %d, got %d)", h.Idx(), h2.Idx())
	}
	if gen.Is(h) || !gen.Is(h2) {
		t.Fatal("the recycled slot must be current for its new handle only")
	}
}

// hdrAddr is where slot idx's header must sit: after every slot of the
// reservation, at one 16-byte stride.
func hdrAddr(p *Pool[rec], idx uint32) uintptr {
	return uintptr(unsafe.Pointer(&p.region[0])) + maxSlots*unsafe.Sizeof(slot[rec]{}) + uintptr(idx)*16
}

// TestHeaderLayout: nothing on the allocate/read/free path commits a header;
// the first Hdr commits those of every committed slab, and ensureSlabs those
// of every slab after it; the headers on both sides of a slab boundary sit at
// one stride in the reservation; and a slot's header outlives its occupants.
func TestHeaderLayout(t *testing.T) {
	p := newTestPool(1)
	byIdx := map[uint32]Ptr{}
	for i := 0; i < SlabSize+8; i++ { // spills into a second slab
		h, _ := p.Alloc(0)
		byIdx[h.Idx()] = h
	}
	for _, h := range byIdx {
		if _, ok := p.Get(h); !ok || !p.Valid(h) {
			t.Fatalf("fresh handle %v not live", h)
		}
	}
	p.Free(0, byIdx[2])
	if p.stamped.Load() || p.Stats().EraBytes != 0 {
		t.Fatal("alloc, read and free must not commit headers")
	}

	first, edge, past := byIdx[1], byIdx[SlabSize-1], byIdx[SlabSize]
	if first.IsNull() || edge.IsNull() || past.IsNull() {
		t.Fatal("the allocations must cover slots 1, SlabSize-1 and SlabSize")
	}
	p.Hdr(first).SetBirth(7)
	if got, want := p.Stats().EraBytes, 2*SlabSize*uint64(16); got != want {
		t.Fatalf("EraBytes = %d after the first header of a two-slab pool, want %d", got, want)
	}
	for _, h := range []Ptr{first, edge, past, byIdx[3]} {
		if got, want := uintptr(unsafe.Pointer(p.Hdr(h))), hdrAddr(p, h.Idx()); got != want {
			t.Fatalf("header of slot %d at %#x, want %#x: the headers are not one array after the slots", h.Idx(), got, want)
		}
	}
	if p.Hdr(edge).Birth() != 0 || p.Hdr(past).Retire() != 0 {
		t.Fatal("a fresh header must read zero")
	}
	p.Hdr(past).SetRetire(11)
	if p.Hdr(first.WithMark()).Birth() != 7 || p.Hdr(past).Retire() != 11 {
		t.Fatal("headers lost their stamps")
	}

	p.Free(0, first)
	again, _ := p.Alloc(0)
	if again.Idx() != first.Idx() {
		t.Fatalf("expected slot %d back, got %d", first.Idx(), again.Idx())
	}
	if p.Hdr(again).Birth() != 7 {
		t.Fatal("a slot's header must outlive its occupants")
	}

	// A slab committed after the first stamp brings its headers with it.
	for atomic.LoadUint32(&p.committed) <= 2*SlabSize {
		h, _ := p.Alloc(0)
		if p.Hdr(h).SetRetire(uint64(h.Idx())); p.Hdr(h).Retire() != uint64(h.Idx()) {
			t.Fatalf("header of slot %d lost its stamp", h.Idx())
		}
	}
	if got, want := p.Stats().EraBytes, 3*SlabSize*uint64(16); got != want {
		t.Fatalf("EraBytes = %d after a third slab, want %d", got, want)
	}
}

// TestHdrAllocatesNothing: a header lives in the pool's reservation, so a
// pool's first Hdr, and the first into its second slab, allocate nothing.
func TestHdrAllocatesNothing(t *testing.T) {
	const runs = 3
	var pools []*Pool[rec]
	var firsts, pasts []Ptr
	for range runs + 1 { // AllocsPerRun calls once more to warm up
		p := newTestPool(1)
		hs := outgrow(p, 0)
		pools, firsts, pasts = append(pools, p), append(firsts, hs[0]), append(pasts, hs[len(hs)-1])
	}
	i := 0
	if avg := testing.AllocsPerRun(runs, func() {
		pools[i].Hdr(firsts[i]).SetBirth(1)
		pools[i].Hdr(pasts[i]).SetBirth(1)
		i++
	}); avg != 0 {
		t.Fatalf("first Hdr calls into two fresh slabs allocate %.1f times", avg)
	}
}

// TestFirstStampConcurrent has goroutines take their pool's first header at
// once while another commits a second slab: each finds the header at its
// fixed address, and a slab committed however the two interleave has its
// headers committed with it.
func TestFirstStampConcurrent(t *testing.T) {
	const n = 8
	p := newTestPool(n + 1)
	h, _ := p.Alloc(0)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			if got := uintptr(unsafe.Pointer(p.Hdr(h))); got != hdrAddr(p, h.Idx()) {
				t.Errorf("goroutine %d: header at %#x, want %#x", i, got, hdrAddr(p, h.Idx()))
			}
			p.Hdr(h).SetRetire(uint64(i + 1))
		}(i)
	}
	done.Add(1)
	go func() {
		defer done.Done()
		start.Wait()
		for atomic.LoadUint32(&p.committed) <= SlabSize {
			q, _ := p.Alloc(n)
			p.Hdr(q).SetBirth(uint64(q.Idx()))
		}
	}()
	start.Done()
	done.Wait()
	if p.Hdr(h).Retire() == 0 {
		t.Fatal("no stamp reached the shared header")
	}
	if st := p.Stats(); st.EraBytes != uint64(atomic.LoadUint32(&p.committed))*16 {
		t.Fatalf("EraBytes = %d, want a header for each of the %d committed slots", st.EraBytes, p.committed)
	}
}

// TestCorruptHandlePanicsTyped: a handle into a slab that was never committed
// panics on every accessor, the header's and the free path's included, with
// the typed slabError — on a pool on its first slab and on one that has grown
// alike, for the first slot past the committed count as for the last slot a
// handle can name. Reading such a slot would fault on PROT_NONE memory, a
// fatal error rather than a panic, so the count is checked first.
func TestCorruptHandlePanicsTyped(t *testing.T) {
	for _, grown := range []bool{false, true} {
		p := newTestPool(1)
		p.Alloc(0)
		if grown {
			outgrow(p, 0)
		}
		for _, idx := range []uint32{p.committed, 5*SlabSize + 3, maxSlots - 1} {
			bad := pack(idx, 1, 0, 0)
			for name, f := range map[string]func(){
				"Raw":      func() { p.Raw(bad) },
				"Slot":     func() { p.Slot(bad) },
				"Valid":    func() { p.Valid(bad) },
				"Get":      func() { p.Get(bad) },
				"MustGet":  func() { p.MustGet(bad) },
				"MustSlot": func() { p.MustSlot(bad) },
				"Hdr":      func() { p.Hdr(bad) },
				"Free":     func() { p.Free(0, bad) },
			} {
				func() {
					defer func() {
						r := recover()
						se, typed := r.(slabError)
						if !typed || uint32(se) != idx || !strings.Contains(se.Error(), "unallocated slab") {
							t.Fatalf("%s on a handle to slot %d (grown %v): recovered %v, want the slab error", name, idx, grown, r)
						}
					}()
					f()
				}()
			}
		}
	}
}

func TestCrossThreadRecycling(t *testing.T) {
	p := NewPool[rec](Config{MaxThreads: 2, CacheSize: 4})
	var hs []Ptr
	for i := 0; i < 64; i++ {
		h, _ := p.Alloc(0)
		hs = append(hs, h)
	}
	for _, h := range hs {
		p.Free(0, h) // overflows thread 0's cache into the global list
	}
	st := p.Stats()
	if st.GlobalOps == 0 {
		t.Fatal("expected flushes to the global free list")
	}
	seen := make(map[uint32]bool)
	for i := 0; i < 64; i++ {
		h, _ := p.Alloc(1) // thread 1 must be able to reuse them
		seen[h.Idx()] = true
	}
	reused := 0
	for _, h := range hs {
		if seen[h.Idx()] {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("thread 1 never reused thread 0's recycled slots")
	}
}

func TestSlabGrowth(t *testing.T) {
	p := newTestPool(1)
	n := SlabSize + SlabSize/2
	for i := 0; i < n; i++ {
		h, v := p.Alloc(0)
		v.key = uint64(i)
		if !p.Valid(h) {
			t.Fatalf("handle %d invalid right after alloc", i)
		}
	}
	if got := p.Stats().Live; got != int64(n) {
		t.Fatalf("live = %d, want %d", got, n)
	}
}

func TestRawAndValidDiscipline(t *testing.T) {
	p := newTestPool(1)
	h, v := p.Alloc(0)
	v.key = 9
	raw := p.Raw(h)
	if raw.key != 9 {
		t.Fatal("Raw must address the record")
	}
	if !p.Valid(h) {
		t.Fatal("Valid must hold before free")
	}
	p.Free(0, h)
	if p.Valid(h) {
		t.Fatal("Valid must fail after free")
	}
}

func TestConcurrentChurn(t *testing.T) {
	const threads = 8
	const iters = 20000
	p := NewPool[rec](Config{MaxThreads: threads, CacheSize: 8})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var held []Ptr
			rng := uint64(tid)*2654435761 + 1
			for i := 0; i < iters; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				if rng%3 != 0 || len(held) == 0 {
					h, v := p.Alloc(tid)
					v.key = uint64(tid)
					held = append(held, h)
				} else {
					h := held[len(held)-1]
					held = held[:len(held)-1]
					if !p.Valid(h) {
						panic("held handle went stale")
					}
					p.Free(tid, h)
				}
			}
			for _, h := range held {
				p.Free(tid, h)
			}
		}(tid)
	}
	wg.Wait()
	st := p.Stats()
	if st.Live != 0 {
		t.Fatalf("leak: live = %d after churn", st.Live)
	}
	if st.Allocs != st.Frees {
		t.Fatalf("allocs %d != frees %d", st.Allocs, st.Frees)
	}
}

func TestQuickAllocFreeInvariant(t *testing.T) {
	p := newTestPool(1)
	live := make(map[Ptr]bool)
	f := func(doFree bool) bool {
		if doFree && len(live) > 0 {
			for h := range live {
				delete(live, h)
				p.Free(0, h)
				if p.Valid(h) {
					return false
				}
				break
			}
		} else {
			h, _ := p.Alloc(0)
			if live[h] {
				return false // duplicate live handle would be catastrophic
			}
			live[h] = true
			if !p.Valid(h) {
				return false
			}
		}
		for h := range live {
			if !p.Valid(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
