package mem

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// outgrow allocates on tid until the pool has carved past its first extent
// and returns the handles, the last of which lies beyond it.
func outgrow(p *Pool[rec], tid int) []Ptr {
	var hs []Ptr
	for p.dir() == nil {
		h, _ := p.Alloc(tid)
		hs = append(hs, h)
	}
	return hs
}

// TestExtentTransition: the first extent is there, and counted, from
// construction; outgrowing it moves nothing — every handle allocated before
// resolves to the same record and header after, through every accessor — and
// the directory's entry 0 is that extent.
func TestExtentTransition(t *testing.T) {
	p := newTestPool(1)
	slab := SlabSize * uint64(unsafe.Sizeof(slot[rec]{}))
	if got := p.Stats().SlabBytes; got != slab {
		t.Fatalf("SlabBytes = %d at construction, want the first extent's %d", got, slab)
	}
	type held struct {
		h Ptr
		v *rec
		g *Gen
	}
	var before []held
	for i := 0; i < SlabSize/2; i++ {
		h, v, g := p.AllocSlot(0)
		v.key = uint64(i)
		before = append(before, held{h, v, g})
	}
	if p.dir() != nil {
		t.Fatal("half a slab of records must not publish the overflow directory")
	}
	past := outgrow(p, 0)

	d := p.dir()
	if d[0].Load() != p.first {
		t.Fatal("the directory's entry 0 must be the first extent")
	}
	for i, b := range before {
		v, g := p.Slot(b.h)
		mv, mg := p.MustSlot(b.h)
		if v != b.v || g != b.g || mv != b.v || mg != b.g || p.Raw(b.h) != b.v {
			t.Fatalf("record %d moved when the pool outgrew its first extent", i)
		}
		if !p.Valid(b.h) || v.key != uint64(i) {
			t.Fatalf("record %d lost its generation or its contents across the transition", i)
		}
	}
	last := past[len(past)-1]
	if last.Idx() < SlabSize || !p.Valid(last) {
		t.Fatalf("the handle that outgrew the extent is %v, want a live one past slot %d", last, SlabSize)
	}
	if got := p.Stats().SlabBytes; got != 2*slab {
		t.Fatalf("SlabBytes = %d after the transition, want two slabs' %d", got, 2*slab)
	}
}

// TestExtentTransitionConcurrent is the transition under traffic (run it
// under -race): four threads resolve records they took before it and churn
// fresh ones while a fifth carves past the first extent. Every read must find
// the record where it was, current for its handle; whichever side of the
// directory's publication a reader falls on, it sees the same addresses.
func TestExtentTransitionConcurrent(t *testing.T) {
	const workers = 4
	p := NewPool[rec](Config{MaxThreads: workers + 1, CacheSize: 16})
	var ready, done sync.WaitGroup
	var carved atomic.Bool
	for tid := 0; tid < workers; tid++ {
		ready.Add(1)
		done.Add(1)
		go func(tid int) {
			defer done.Done()
			var hs [32]Ptr
			var vs [32]*rec
			for i := range hs {
				hs[i], vs[i] = p.Alloc(tid)
				vs[i].key = uint64(tid<<8 | i)
			}
			ready.Done()
			for round := 0; round < 64 || !carved.Load(); round++ {
				for i, h := range hs {
					v, g := p.Slot(h)
					if v != vs[i] || !g.Is(h) || v.key != uint64(tid<<8|i) {
						t.Errorf("tid %d: held record %d moved, went stale or lost its key mid-transition", tid, i)
						return
					}
				}
				h, v := p.Alloc(tid)
				v.key = ^uint64(tid)
				got, g := p.Slot(h)
				if got != v || !g.Is(h) {
					t.Errorf("tid %d: fresh handle %v does not resolve to its record", tid, h)
					return
				}
				p.Free(tid, h)
				if g.Is(h) {
					t.Errorf("tid %d: %v still current after its free", tid, h)
					return
				}
				runtime.Gosched()
			}
		}(tid)
	}
	ready.Wait()
	for i := 0; p.dir() == nil; i++ {
		if h, _ := p.Alloc(workers); !p.Valid(h) {
			t.Fatalf("carver's handle %d (%v) is not live", i, h)
		}
		if i%256 == 0 {
			runtime.Gosched() // the readers yield each round too: interleave
		}
	}
	carved.Store(true)
	done.Wait()
}

// TestPoolFootprint: a pool that has not grown is a small object — the 64 KB
// directory is behind the grown pointer, not in it — and the words every
// resolution loads start at least a cache line before the first word an
// allocating thread writes, so no alignment puts the two on one line.
func TestPoolFootprint(t *testing.T) {
	var p Pool[rec]
	if got := unsafe.Sizeof(p); got >= 1024 {
		t.Fatalf("an ungrown Pool is %d bytes, want under 1 KB", got)
	}
	if got := unsafe.Sizeof(slabDir[rec]{}); got != maxSlabs*8 {
		t.Fatalf("the overflow directory is %d bytes, want %d", got, maxSlabs*8)
	}
	read := map[string]uintptr{
		"cfg":     unsafe.Offsetof(p.cfg) + unsafe.Sizeof(p.cfg) - 8,
		"first":   unsafe.Offsetof(p.first),
		"grown":   unsafe.Offsetof(p.grown),
		"threads": unsafe.Offsetof(p.threads) + unsafe.Sizeof(p.threads) - 8,
	}
	written := map[string]uintptr{
		"cursor":     unsafe.Offsetof(p.cursor),
		"global.ops": unsafe.Offsetof(p.global) + unsafe.Offsetof(p.global.ops),
		"growMu":     unsafe.Offsetof(p.growMu),
	}
	for r, ro := range read {
		for w, wo := range written {
			if wo < ro+64 {
				t.Errorf("%s (last word at %d) is within a cache line of %s (at %d)", r, ro, w, wo)
			}
		}
	}
}
