package mem

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

const (
	slabBits = 14
	// SlabSize is the number of slots committed per slab.
	SlabSize = 1 << slabBits
	// maxSlots spans a Ptr's index bits, 2^27 records per pool: the slots a
	// pool's reservation covers.
	maxSlabs = 1 << (kindShift - slabBits)
	maxSlots = maxSlabs * SlabSize

	// carveBatch is how many never-used slots a thread claims from the bump
	// cursor at once, and refillBatch how many recycled slots it pulls from
	// the shared free list at once.
	carveBatch  = 64
	refillBatch = 64
)

// Gen is a slot's 8-byte header. Its first word is the generation, the
// use-after-free detector: even while the slot is free, odd while it is
// live, bumped by every Alloc and Free — the only allocator metadata a
// record carries inline. The second word belongs to the record: the pool
// never reads or writes it, so it holds whatever the slot's previous
// occupant left, and the owning structure initialises it before publishing a
// fresh record exactly as it initialises the record's own fields. The
// lock-based structures keep their lock and deletion flag there (dgtbst,
// lazylist); the others leave it alone.
type Gen struct {
	v    atomic.Uint32
	Word atomic.Uint32
}

// Is reports whether q's generation is current, i.e. q still addresses the
// allocation it was created by.
func (g *Gen) Is(q Ptr) bool { return g.v.Load() == q.Gen() }

// Hdr is a record's era header: the birth and retire stamps the era and
// epoch schemes keep per record (the per-record metadata the paper notes IBR
// and hazard eras require). It is not in the slot. The pool's reservation
// holds every slot and then every slot's header, 16 bytes at a fixed stride,
// and only a pool's first Arena.Hdr commits the headers: a pool whose scheme
// never asks for one never commits a page of them. A slot's header outlives
// its occupants: a fresh header reads zero, exactly as a fresh slot does.
type Hdr struct {
	birth  atomic.Uint64
	retire atomic.Uint64
}

// Birth returns the record's allocation era (set by era-based schemes).
func (h *Hdr) Birth() uint64 { return h.birth.Load() }

// SetBirth records the record's allocation era.
func (h *Hdr) SetBirth(e uint64) { h.birth.Store(e) }

// Retire returns the record's retirement tag (era or epoch, scheme-defined).
func (h *Hdr) Retire() uint64 { return h.retire.Load() }

// SetRetire records the record's retirement tag.
func (h *Hdr) SetRetire(e uint64) { h.retire.Store(e) }

// Arena is the type-erased view of a Pool that SMR schemes hold: enough to
// free retired records and to tag them with eras, without knowing the record
// type.
type Arena interface {
	// Free returns a retired record to the allocator. It panics if the
	// handle is stale (double free) — reclaiming the same record twice is
	// always an SMR bug.
	Free(tid int, p Ptr)
	// FreeBatch returns a whole reclamation burst at once: the same
	// double-free checks as Free per record, but one thread-cache
	// interaction and at most one shared-free-list interaction for the
	// entire batch. The slice is not retained and may be reordered.
	FreeBatch(tid int, ps []Ptr)
	// Hdr exposes the era header of a live or retired record; a pool's first
	// call commits its headers.
	Hdr(p Ptr) *Hdr
	// Valid reports whether p still addresses the allocation it was created
	// by (i.e. the record has not been freed).
	Valid(p Ptr) bool
	// SizeCache raises thread tid's free-cache target to cover a
	// reclamation burst of the given size, so a scheme's characteristic
	// burst (limbo bag, scan threshold) amortizes to at most one
	// shared-shard interaction and the recycled slots stay local for the
	// allocations that follow. Safe to call from any goroutine: a pool
	// attached to a Hub after leases are already held is sized for the
	// live slots by the attaching goroutine, concurrent with the owners'
	// Alloc/Free traffic.
	SizeCache(tid, burst int)
	// DrainCache flushes thread tid's entire free cache to the shared
	// shards. A departing thread calls it on lease release so its cached
	// slots are not stranded while the slot sits unleased.
	DrainCache(tid int)
}

// Config sizes a Pool.
type Config struct {
	// MaxThreads is the number of thread ids (0..MaxThreads-1) that will
	// call Alloc/Free. Required.
	MaxThreads int
	// CacheSize is the per-thread free-cache target; when a thread's cache
	// exceeds twice this value, half is flushed to the shared free list
	// (the jemalloc tcache/arena analogue). Default 128.
	CacheSize int
	// Shards splits the shared free list into independently locked shards
	// keyed by thread id (rounded up to a power of two). Shards: 1 keeps
	// the single contended list that reproduces the paper's DEBRA
	// reclamation-burst bottleneck; 0 selects the scalable default, the
	// power of two covering GOMAXPROCS (see DESIGN.md §6).
	Shards int
	// Tag is the arena tag stamped into every handle this pool returns
	// (see Ptr), so a Hub standing in front of several pools can route a
	// retired record back to its owner. 0 — the default — produces the
	// untagged handles a standalone pool always produced. Must be below
	// MaxTags.
	Tag int

	// kind is the record kind stamped into every handle this pool returns
	// (see Ptr): 0, or 1 for the second pool NewPair builds.
	kind int
}

func (c Config) withDefaults() Config {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	c.Shards = ceilPow2(c.Shards)
	if c.Tag < 0 || c.Tag >= MaxTags {
		panic(fmt.Sprintf("mem: arena tag %d out of range [0, %d)", c.Tag, MaxTags))
	}
	return c
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Pool is a slab allocator for records of type T. Each slot carries a Gen
// whose generation tags handles; see the package comment. Alloc and Free are
// safe for concurrent use provided each goroutine uses its own thread id.
// The slots are outside the Go heap (DESIGN.md §4 "Resolving a handle"), and
// no record pointer may outlive its Pool.
type Pool[T any] struct {
	// What every resolution, Alloc and Free loads: cfg, region and the
	// threads slice header, written once by NewPool, committed, stored once
	// per slab by ensureSlabs, and stamped, stored once by the first Hdr
	// (from then on ensureSlabs commits each slab's headers with its slots).
	// The pad keeps these words a cache line away from the counters below,
	// so a reader walking the structure never refetches them because an
	// allocating thread bumped a counter (the tcache counters live in the
	// threads array, padded per thread).
	cfg       Config
	region    []byte // the reservation of every slot and header, as syscall.Mmap returned it
	committed uint32 // slots readable in region, whole slabs; stored under growMu
	stamped   atomic.Bool
	threads   []tcache
	_         [64]byte

	cursor atomic.Uint64 // next never-carved slot index
	global globalFree
	growMu sync.Mutex

	// Segment directory (see segment.go): handle slot index → member run.
	// nsegs gates the free path so pools without segments pay one atomic
	// load and nothing else.
	segMu sync.RWMutex
	segs  map[uint32]Run
	nsegs atomic.Int32
}

// slot is one record and its header: 8 + sizeof(T) bytes.
type slot[T any] struct {
	gen Gen
	val T
}

// slabError is the panic value for a handle into a slab never committed — a
// corrupt handle, whose PROT_NONE slot would fault fatally if read. A typed
// value instead of a formatted string keeps slotAt within the inlining
// budget of every barriered copy that resolves a slot.
type slabError uint32

func (e slabError) Error() string {
	return fmt.Sprintf("mem: handle into unallocated slab (idx %d)", uint32(e))
}

// globalFree is the shared recycled-slot list, split into Config.Shards
// independently locked shards keyed by thread id. With Shards: 1 it
// degenerates to the single mutex-protected list whose contention reproduces
// the allocator-bottleneck effect the paper attributes to DEBRA's burst
// reclamation; with the scalable default, concurrent reclaimers flush and
// refill against disjoint shards and only meet when stealing from a
// neighbour.
type globalFree struct {
	shards []freeShard
	mask   int           // len(shards)-1; len is a power of two
	shift  uint          // 64 - log2(len(shards)); see Pool.shardOf
	ops    atomic.Uint64 // lock acquisitions, reported in Stats
}

// freeShard is one lock-protected segment of the shared free list. count
// mirrors len(free) so refill can skip empty shards without taking their
// locks; it is only written under mu.
type freeShard struct {
	mu    sync.Mutex
	free  []uint32
	count atomic.Int64
	_     [64]byte // keep neighbouring shard locks off one cache line
}

// push appends idxs to the shard under its lock.
func (sh *freeShard) push(ops *atomic.Uint64, idxs []uint32) {
	sh.mu.Lock()
	ops.Add(1)
	sh.free = append(sh.free, idxs...)
	sh.count.Store(int64(len(sh.free)))
	sh.mu.Unlock()
}

// pop moves up to max entries from the shard into dst, returning the grown
// dst. It skips the lock entirely when the shard looks empty.
func (sh *freeShard) pop(ops *atomic.Uint64, dst []uint32, max int) []uint32 {
	if sh.count.Load() == 0 {
		return dst
	}
	sh.mu.Lock()
	ops.Add(1)
	if n := len(sh.free); n > 0 {
		take := max
		if take > n {
			take = n
		}
		dst = append(dst, sh.free[n-take:]...)
		sh.free = sh.free[:n-take]
		sh.count.Store(int64(len(sh.free)))
	}
	sh.mu.Unlock()
	return dst
}

type tcache struct {
	free []uint32
	// limit is this thread's cache target: flushes trigger beyond 2·limit
	// and keep limit (Free) or limit entries (FreeBatch). It starts at the
	// global Config.CacheSize and is raised per thread by SizeCache to the
	// owning scheme's declared reclamation burst — the NUMA-style sizing
	// DESIGN.md §6 describes — so one thread reclaiming a full bag and
	// another reclaiming nothing no longer share one global knob. It is
	// atomic because SizeCache may run on a goroutine other than the slot's
	// owner: a Hub replays the recorded burst onto late-attaching pools for
	// every slot while the owners are mid-traffic.
	limit  atomic.Int32
	allocs atomic.Uint64
	frees  atomic.Uint64
	_      [64]byte
}

// NewPool creates a pool: it reserves address space for every slot a handle
// can name and for its header, unmapped again once the Pool is unreachable,
// and commits the first slab. Slot 0 is reserved so that no live handle is
// Null. T must hold no Go pointers: the garbage collector never scans the
// reservation.
func NewPool[T any](cfg Config) *Pool[T] {
	if t := reflect.TypeFor[T](); hasPointers(t) {
		panic(fmt.Sprintf("mem: record type %v holds Go pointers, which the collector would not see in a pool", t))
	}
	region := reserve(maxSlots * (unsafe.Sizeof(slot[T]{}) + unsafe.Sizeof(Hdr{})))
	p := &Pool[T]{cfg: cfg.withDefaults(), region: region}
	runtime.AddCleanup(p, unreserve, region)
	p.ensureSlabs(0)
	p.threads = make([]tcache, p.cfg.MaxThreads)
	for i := range p.threads {
		p.threads[i].limit.Store(int32(p.cfg.CacheSize))
	}
	p.global.shards = make([]freeShard, p.cfg.Shards)
	p.global.mask = p.cfg.Shards - 1
	p.global.shift = 64 - uint(bits.Len(uint(p.global.mask)))
	p.cursor.Store(1) // reserve slot 0
	return p
}

// hasPointers reports whether a value of type t holds a Go pointer.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		// An embedded struct is a field like any other, so walking the
		// direct fields reaches every promoted one; Field allocates nothing.
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return t.Kind() > reflect.Complex128 // every kind after the numbers holds or is a pointer
}

// shardOf maps a thread id onto a shard index. Callers number threads
// densely from zero, so a plain tid&mask would leave every shard above the
// thread count cold — all flush traffic would convoy on the low shards
// whenever threads < Shards. A Fibonacci multiplicative hash spreads
// consecutive tids across the shard space (the golden-ratio sequence is
// low-discrepancy), covering it near-evenly at any threads/Shards ratio.
func (p *Pool[T]) shardOf(tid int) int {
	// With one shard the shift is 64, which Go defines to yield 0.
	return int((uint64(tid) * 0x9e3779b97f4a7c15) >> p.global.shift)
}

// homeShard returns a thread's free-list shard.
func (p *Pool[T]) homeShard(tid int) *freeShard {
	return &p.global.shards[p.shardOf(tid)]
}

// MaxThreads returns the number of thread ids the pool was sized for.
func (p *Pool[T]) MaxThreads() int { return p.cfg.MaxThreads }

// slotAt resolves a slot index: one bounds check against the committed
// count, then base + idx·size — next → address arithmetic → record, the one
// load a link costs in the paper, grown or not. A handle reaches another
// thread only through an atomic link or a lock its reader acquires, after the
// ensureSlabs that committed its slab, so its holder sees a count above it.
//
// The shape is for the compiler (DESIGN.md §4 "Resolving a handle"): the two
// paths meet in s before the panic, so each field load keeps its offset as a
// displacement, and base is loaded before the test, into a register.
func (p *Pool[T]) slotAt(idx uint32) *slot[T] {
	var s *slot[T]
	if base := unsafe.SliceData(p.region); idx < atomic.LoadUint32(&p.committed) {
		s = (*slot[T])(unsafe.Add(unsafe.Pointer(base), uintptr(idx)*unsafe.Sizeof(slot[T]{})))
	}
	if s == nil {
		panic(slabError(idx))
	}
	return s
}

// Slot returns the record for q together with its generation word, from one
// slot resolution: the copy-then-validate read copies the fields through the
// first and then asks the second whether q is still current (Gen.Is), with
// no second resolution. The record pointer is unvalidated, exactly as Raw's.
func (p *Pool[T]) Slot(q Ptr) (*T, *Gen) {
	s := p.slotAt(q.Idx())
	return &s.val, &s.gen
}

// Raw returns the record for p without validating its generation. Callers
// must follow the copy-then-Valid discipline, or hold a protection (lock,
// reservation, hazard pointer) that keeps the record live.
func (p *Pool[T]) Raw(q Ptr) *T {
	return &p.slotAt(q.Idx()).val
}

// Hdr implements Arena. A pool's first call commits the headers (stamp);
// every call is then slotAt's bounds check and one address, the header range
// starting after the last slot the reservation holds.
func (p *Pool[T]) Hdr(q Ptr) *Hdr {
	if !p.stamped.Load() {
		p.stamp()
	}
	idx := q.Idx()
	p.slotAt(idx) // a slab never committed panics here, as on any accessor
	return (*Hdr)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(p.region)), p.hdrOff(uint64(idx))))
}

// hdrOff is the offset of slot idx's header in the reservation.
func (p *Pool[T]) hdrOff(idx uint64) uint64 {
	return maxSlots*uint64(unsafe.Sizeof(slot[T]{})) + idx*uint64(unsafe.Sizeof(Hdr{}))
}

// stamp commits the headers of every slab committed so far, then sets
// stamped, both under growMu: every count ensureSlabs publishes after that
// covers its slabs' headers too, so a reader that saw stamped set finds a
// committed header below any count it then loads.
func (p *Pool[T]) stamp() {
	p.growMu.Lock()
	defer p.growMu.Unlock()
	if !p.stamped.Load() {
		p.commit(p.hdrOff(0), p.hdrOff(uint64(p.committed)))
		p.stamped.Store(true)
	}
}

// Valid implements Arena: it reports whether q's generation is current.
func (p *Pool[T]) Valid(q Ptr) bool {
	return p.slotAt(q.Idx()).gen.Is(q)
}

// Get returns the record for q if the handle is still live.
func (p *Pool[T]) Get(q Ptr) (*T, bool) {
	if q.IsNull() {
		return nil, false
	}
	s := p.slotAt(q.Idx())
	if !s.gen.Is(q) {
		return nil, false
	}
	return &s.val, true
}

// MustGet returns the record for q, panicking if the handle is stale. Use it
// for records the caller has locked or reserved: staleness there is a bug in
// the SMR scheme under test, not a benign race.
func (p *Pool[T]) MustGet(q Ptr) *T {
	v, _ := p.MustSlot(q)
	return v
}

// MustSlot is MustGet returning the record's header as well, from the one
// slot resolution: how a write phase reaches the header's record-owned word
// of a record it has locked, reserved or just allocated.
func (p *Pool[T]) MustSlot(q Ptr) (*T, *Gen) {
	if !q.IsNull() {
		if s := p.slotAt(q.Idx()); s.gen.Is(q) {
			return &s.val, &s.gen
		}
	}
	panic(fmt.Sprintf("mem: use after free through protected handle %v", q))
}

// Alloc returns a fresh handle and its record. The record's fields and its
// header's record-owned word (Gen.Word) hold whatever the previous occupant
// left (slabs start zeroed); callers must initialize every field, and the
// word if they use it, with atomic stores, before publishing the handle.
func (p *Pool[T]) Alloc(tid int) (Ptr, *T) {
	q, v, _ := p.AllocSlot(tid)
	return q, v
}

// AllocSlot is Alloc returning the record's header as well, from the one
// slot resolution allocation makes anyway: how a constructor that keeps
// state in the header word initialises a fresh record.
func (p *Pool[T]) AllocSlot(tid int) (Ptr, *T, *Gen) {
	tc := &p.threads[tid]
	if len(tc.free) == 0 {
		p.refill(tc, tid)
	}
	idx := tc.free[len(tc.free)-1]
	tc.free = tc.free[:len(tc.free)-1]
	s := p.slotAt(idx)
	g := s.gen.v.Load() // even: slot is free
	s.gen.v.Store(g + 1)
	tc.allocs.Add(1)
	return pack(idx, g+1, p.cfg.Tag, p.cfg.kind), &s.val, &s.gen
}

// owns reports whether q carries this pool's tag and kind.
func (p *Pool[T]) owns(q Ptr) bool {
	return q.ArenaTag() == p.cfg.Tag && q.Kind() == p.cfg.kind
}

// release CASes q's slot generation from live to free, panicking on double
// frees and corrupt handles, and returns the slot index.
func (p *Pool[T]) release(q Ptr) uint32 {
	if q.IsNull() {
		panic("mem: free of nil handle")
	}
	if !p.owns(q) {
		panic(fmt.Sprintf("mem: free of %v routed to pool with tag %d kind %d (Hub or Pair misroute, or corrupt handle)",
			q, p.cfg.Tag, p.cfg.kind))
	}
	s := p.slotAt(q.Idx())
	if !s.gen.v.CompareAndSwap(q.Gen(), q.Gen()+1) {
		panic(fmt.Sprintf("mem: double free of %v (slot gen now %d)", q, s.gen.v.Load()))
	}
	return q.Idx()
}

// Free implements Arena. It detects double frees and frees of corrupt
// handles by CASing the slot generation. A segment handle's members are
// fanned out first (segment.go); the handle slot then frees as usual.
func (p *Pool[T]) Free(tid int, q Ptr) {
	if p.nsegs.Load() != 0 {
		if r, ok := p.takeSeg(q); ok {
			p.freeRun(tid, r)
		}
	}
	tc := &p.threads[tid]
	tc.free = append(tc.free, p.release(q))
	tc.frees.Add(1)
	if len(tc.free) > 2*int(tc.limit.Load()) {
		p.flush(tc, tid, len(tc.free)/2)
	}
}

// FreeBatch implements Arena: it releases a whole reclamation burst with one
// thread-cache append and at most one shared-shard interaction, instead of
// the per-record flush cadence a Free loop would pay. Every record still
// goes through the same double-free CAS as Free.
func (p *Pool[T]) FreeBatch(tid int, qs []Ptr) {
	if len(qs) == 0 {
		return
	}
	if p.nsegs.Load() != 0 {
		p.freeSegments(tid, qs)
	}
	tc := &p.threads[tid]
	for _, q := range qs {
		tc.free = append(tc.free, p.release(q))
	}
	tc.frees.Add(uint64(len(qs)))
	if limit := int(tc.limit.Load()); len(tc.free) > 2*limit {
		// One push returns the whole overflow, not half of it, so a burst
		// of any size costs a single lock acquisition.
		p.flush(tc, tid, limit)
	}
}

// SizeCache implements Arena: it raises (never shrinks) tid's cache target
// to burst, so a reclamation burst of that size fits locally — at most one
// flush per burst, and the recycled slots stay resident for the allocations
// that refill the structure. The raise is a CAS loop so concurrent callers
// (the slot's owner at acquire time, a Hub replaying the burst onto a
// late-attached pool) converge on the max.
func (p *Pool[T]) SizeCache(tid, burst int) {
	tc := &p.threads[tid]
	for {
		cur := tc.limit.Load()
		if int32(burst) <= cur || tc.limit.CompareAndSwap(cur, int32(burst)) {
			return
		}
	}
}

// DrainCache implements Arena: it flushes tid's entire free cache to the
// thread's home shard, so a released thread slot strands no recyclable
// records while unleased.
func (p *Pool[T]) DrainCache(tid int) {
	tc := &p.threads[tid]
	if len(tc.free) > 0 {
		p.flush(tc, tid, 0)
	}
}

// refill restocks a thread cache: recycled slots from the thread's home
// shard first, then any non-empty shard (work stealing keeps memory bounded
// when producers and consumers hash to different shards), and fresh slots
// carved from the bump cursor as the last resort.
func (p *Pool[T]) refill(tc *tcache, tid int) {
	home := p.shardOf(tid)
	for i := 0; i <= p.global.mask; i++ {
		sh := &p.global.shards[(home+i)&p.global.mask]
		tc.free = sh.pop(&p.global.ops, tc.free, refillBatch)
		if len(tc.free) > 0 {
			return
		}
	}

	base := p.cursor.Add(carveBatch) - carveBatch
	p.ensureSlabs(base + carveBatch - 1)
	for i := uint64(0); i < carveBatch; i++ {
		tc.free = append(tc.free, uint32(base+i))
	}
}

// ensureSlabs commits, in place, every slab up to the one holding slot hi,
// the last of a carved range, and the slabs' headers once the pool is
// stamped, before its caller hands out an index in the range (slotAt's
// ordering argument rests on that), and then publishes the new committed
// count.
func (p *Pool[T]) ensureSlabs(hi uint64) {
	if hi < uint64(atomic.LoadUint32(&p.committed)) {
		return
	}
	if hi >= maxSlots {
		panic("mem: pool exhausted (maxSlots)")
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	size, from, to := uint64(unsafe.Sizeof(slot[T]{})), uint64(p.committed), (hi>>slabBits+1)<<slabBits
	if from < to {
		p.commit(from*size, to*size)
		if p.stamped.Load() {
			p.commit(p.hdrOff(from), p.hdrOff(to))
		}
		atomic.StoreUint32(&p.committed, uint32(to))
	}
}

// commit makes bytes [lo, hi) of the reservation readable and writable.
func (p *Pool[T]) commit(lo, hi uint64) {
	if err := syscall.Mprotect(p.region[lo:hi], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		panic(fmt.Sprintf("mem: committing reservation bytes [%d, %d): %v", lo, hi, err))
	}
}

// flush returns an oversized thread cache's oldest entries to the thread's
// home shard in one push, keeping the `keep` most recently freed
// (cache-hot) slots local.
func (p *Pool[T]) flush(tc *tcache, tid, keep int) {
	n := len(tc.free) - keep
	if n <= 0 {
		return
	}
	p.homeShard(tid).push(&p.global.ops, tc.free[:n])
	rest := copy(tc.free, tc.free[n:])
	tc.free = tc.free[:rest]
}

// Stats is a snapshot of pool accounting. Live counts allocated-but-not-freed
// records, i.e. reachable records plus unreclaimed garbage — the quantity the
// paper's E2 experiment measures as resident memory.
type Stats struct {
	Allocs uint64
	Frees  uint64
	Live   int64
	// SlotSize is the inline footprint of one record: its generation word
	// plus the record itself. The era header is not part of it. Summed
	// statistics (Plus) keep it only when every pool has the same one.
	SlotSize uintptr
	// EraBytes is the committed era headers: 0 until a scheme asks for a
	// header, then one header per slot of every committed slab.
	EraBytes uint64
	// LiveBytes is Live records at SlotSize each, plus one era header each
	// once the headers are committed — what a record costs under the scheme
	// that is actually running.
	LiveBytes int64
	// SlabBytes is the committed slabs plus EraBytes.
	SlabBytes uint64
	GlobalOps uint64
}

// Stats sums per-thread counters. It is approximate under concurrency (the
// counters are read without stopping the world) but monotone enough for peak
// tracking.
func (p *Pool[T]) Stats() Stats {
	var st Stats
	for i := range p.threads {
		st.Allocs += p.threads[i].allocs.Load()
		st.Frees += p.threads[i].frees.Load()
	}
	st.Live = int64(st.Allocs) - int64(st.Frees)
	st.SlotSize = unsafe.Sizeof(slot[T]{})
	slots, perRecord := uint64(atomic.LoadUint32(&p.committed)), int64(st.SlotSize)
	if p.stamped.Load() {
		st.EraBytes = slots * uint64(unsafe.Sizeof(Hdr{}))
		perRecord += int64(unsafe.Sizeof(Hdr{}))
	}
	st.LiveBytes = st.Live * perRecord
	st.SlabBytes = slots*uint64(st.SlotSize) + st.EraBytes
	st.GlobalOps = p.global.ops.Load()
	return st
}

// Plus returns the statistics of s's pools and o's taken together: every
// count and byte total summed. SlotSize is kept only where both sides report
// the same one — pools of different record sizes have no one slot size — so
// it is 0 for a structure with two record kinds. The zero Stats is the empty
// sum (no pool reports it: every pool has its first slab), so a fold from
// Stats{} over one pool, or over pools of one size, keeps their SlotSize.
func (s Stats) Plus(o Stats) Stats {
	if s == (Stats{}) {
		return o
	}
	if s.SlotSize != o.SlotSize {
		s.SlotSize = 0
	}
	s.Allocs += o.Allocs
	s.Frees += o.Frees
	s.Live += o.Live
	s.EraBytes += o.EraBytes
	s.LiveBytes += o.LiveBytes
	s.SlabBytes += o.SlabBytes
	s.GlobalOps += o.GlobalOps
	return s
}
