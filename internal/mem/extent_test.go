package mem

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// outgrow allocates on tid until the pool has committed past its first slab
// and returns the handles, the last of which lies beyond it.
func outgrow(p *Pool[rec], tid int) []Ptr {
	var hs []Ptr
	for atomic.LoadUint32(&p.committed) <= SlabSize {
		h, _ := p.Alloc(tid)
		hs = append(hs, h)
	}
	return hs
}

// TestExtentTransition: the pool grows in place. The first slab is committed,
// and counted, from construction; committing the second moves nothing —
// every handle allocated before resolves to the same record and header after,
// through every accessor — and the slots run on across the slab boundary at
// one stride, as one array.
func TestExtentTransition(t *testing.T) {
	p := newTestPool(1)
	size := unsafe.Sizeof(slot[rec]{})
	slab := SlabSize * uint64(size)
	if got := p.Stats().SlabBytes; got != slab {
		t.Fatalf("SlabBytes = %d at construction, want one slab's %d", got, slab)
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
	if got := p.Stats().SlabBytes; got != slab {
		t.Fatalf("SlabBytes = %d after half a slab of records, want still %d", got, slab)
	}
	past := outgrow(p, 0)

	for i, b := range before {
		v, g := p.Slot(b.h)
		mv, mg := p.MustSlot(b.h)
		if v != b.v || g != b.g || mv != b.v || mg != b.g || p.Raw(b.h) != b.v {
			t.Fatalf("record %d moved when the pool committed its second slab", i)
		}
		if !p.Valid(b.h) || v.key != uint64(i) {
			t.Fatalf("record %d lost its generation or its contents across the growth", i)
		}
	}
	last := past[len(past)-1]
	if last.Idx() < SlabSize || !p.Valid(last) {
		t.Fatalf("the handle that outgrew the first slab is %v, want a live one past slot %d", last, SlabSize)
	}
	for _, idx := range []uint32{1, SlabSize - 1, SlabSize, last.Idx()} {
		if got, want := uintptr(unsafe.Pointer(p.slotAt(idx))), uintptr(unsafe.Pointer(&p.region[0]))+uintptr(idx)*size; got != want {
			t.Fatalf("slot %d at %#x, want base + %d·%d = %#x: the slabs are not one array", idx, got, idx, size, want)
		}
	}
	if got := p.Stats().SlabBytes; got != 2*slab {
		t.Fatalf("SlabBytes = %d after the growth, want two slabs' %d", got, 2*slab)
	}
}

// TestExtentTransitionConcurrent is the growth under traffic (run it under
// -race): four threads resolve records they took before it and churn fresh
// ones while a fifth carves past the first slab. Every read must find the
// record where it was, current for its handle.
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
						t.Errorf("tid %d: held record %d moved, went stale or lost its key mid-growth", tid, i)
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
	for i := 0; atomic.LoadUint32(&p.committed) <= SlabSize; i++ {
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

// TestPoolFootprint: a Pool is a small object — its slots are in the
// reservation, not in it — and the words every resolution loads start at
// least a cache line before the first word an allocating thread writes, so
// no alignment puts the two on one line.
func TestPoolFootprint(t *testing.T) {
	var p Pool[rec]
	if got := unsafe.Sizeof(p); got >= 1024 {
		t.Fatalf("a Pool is %d bytes, want under 1 KB", got)
	}
	read := map[string]uintptr{
		"cfg":       unsafe.Offsetof(p.cfg) + unsafe.Sizeof(p.cfg) - 8,
		"region":    unsafe.Offsetof(p.region),
		"committed": unsafe.Offsetof(p.committed),
		"threads":   unsafe.Offsetof(p.threads) + unsafe.Sizeof(p.threads) - 8,
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

// TestPoolRejectsGoPointers: the collector never scans a pool's slots, so a
// record type that holds a Go pointer anywhere is refused at construction.
func TestPoolRejectsGoPointers(t *testing.T) {
	type nested struct {
		key  uint64
		name [2]string
	}
	for name, build := range map[string]func(){
		"*int":     func() { NewPool[*int](Config{}) },
		"[]byte":   func() { NewPool[[]byte](Config{}) },
		"nested":   func() { NewPool[nested](Config{}) },
		"any":      func() { NewPool[any](Config{}) },
		"map":      func() { NewPool[map[int]int](Config{}) },
		"func":     func() { NewPool[func()](Config{}) },
		"chan":     func() { NewPool[chan int](Config{}) },
		"unsafe":   func() { NewPool[unsafe.Pointer](Config{}) },
		"atomic.P": func() { NewPool[atomic.Pointer[int]](Config{}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "Go pointers") {
					t.Errorf("NewPool[%s]: recovered %v, want the Go-pointer refusal", name, r)
				}
			}()
			build()
		}()
	}
	NewPool[struct {
		a [0]*int
		b atomic.Uint64
		c [3]uint32
	}](Config{}) // no pointer a value can hold: accepted
}

// wide is a record the size of an (a,b)-tree node: 288 bytes.
type wide struct{ _ [36]uint64 }

// TestPoolReleasesReservation: a pool's reservation goes back when the Pool
// becomes unreachable. 256 pools of a 288-byte record reserve about 10 TB of
// address space between them; after they are dropped and collected, VmSize
// must be back within one reservation of where it started.
func TestPoolReleasesReservation(t *testing.T) {
	reservation := uint64(maxSlots * (unsafe.Sizeof(slot[wide]{}) + unsafe.Sizeof(Hdr{})))
	runtime.GC()
	start := vmSize(t)
	for i := 0; i < 256; i++ {
		p := NewPool[wide](Config{MaxThreads: 1})
		p.Alloc(0)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		got := vmSize(t)
		if got <= start+reservation {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VmSize %d KB after dropping 256 pools, started at %d KB: more than one %d KB reservation is still mapped",
				got>>10, start>>10, reservation>>10)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReservationsPaced: a loop that drops pools faster than its heap grows
// never holds much more than reserveBytes of reservations, because NewPool
// collects once the live ones reach it. A few hundred bytes of heap per Pool
// would not start a collection in time: 1 200 dropped pools of a 288-byte
// record, 46 TB of address space, grow the heap by about a megabyte.
func TestReservationsPaced(t *testing.T) {
	size := int64(maxSlots * (unsafe.Sizeof(slot[wide]{}) + unsafe.Sizeof(Hdr{})))
	for i := int64(0); i < 3*reserveBytes/size; i++ {
		NewPool[wide](Config{MaxThreads: 1, Shards: 1})
		if live := liveReserved.Load(); live > reserveBytes {
			t.Fatalf("pool %d: %d GB of reservations live, want at most %d", i, live>>30, reserveBytes>>30)
		}
	}
}

// vmSize returns the process's virtual size in bytes, from /proc/self/status.
func vmSize(t *testing.T) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmSize:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("parsing VmSize %q: %v", rest, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmSize line in /proc/self/status")
	return 0
}
