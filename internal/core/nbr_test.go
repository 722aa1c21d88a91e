package core

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

type rec struct{ key uint64 }

func newScheme(t *testing.T, threads int, cfg Config) (*Scheme, *mem.Pool[rec]) {
	t.Helper()
	pool := mem.NewPool[rec](mem.Config{MaxThreads: threads})
	return New(pool, threads, cfg), pool
}

// neutralized runs f and reports whether it panicked with sigsim.Neutralized.
func neutralized(f func()) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(sigsim.Neutralized); !ok {
				panic(r)
			}
			hit = true
		}
	}()
	f()
	return false
}

func TestNames(t *testing.T) {
	s, _ := newScheme(t, 2, Config{})
	if s.Name() != "nbr" {
		t.Fatalf("name = %q", s.Name())
	}
	sp, _ := newScheme(t, 2, Config{Plus: true})
	if sp.Name() != "nbr+" {
		t.Fatalf("name = %q", sp.Name())
	}
}

func TestConfigRejectsTinyBag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N·R ≥ BagSize must be rejected")
		}
	}()
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 8})
	New(pool, 8, Config{BagSize: 16, Slots: 4})
}

// TestConfigRejectsWideRow: a guard's dirty mask has one bit per
// reservation slot, so a wider row would leave slots BeginRead never clears.
func TestConfigRejectsWideRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Slots above %d must be rejected", maxSlots)
		}
	}()
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	New(pool, 1, Config{BagSize: 1024, Slots: maxSlots + 1})
}

func TestReserveSlotRangePanics(t *testing.T) {
	s, pool := newScheme(t, 2, Config{Slots: 2})
	g := s.Guard(0)
	p, _ := pool.Alloc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot must panic")
		}
	}()
	g.Reserve(2, p)
}

// fill retires fresh records through g until just below the bag threshold.
func fill(g smr.Guard, pool *mem.Pool[rec], tid, n int) []mem.Ptr {
	var hs []mem.Ptr
	for i := 0; i < n; i++ {
		h, _ := pool.Alloc(tid)
		g.Retire(h)
		hs = append(hs, h)
	}
	return hs
}

func TestRetireBelowThresholdKeepsEverything(t *testing.T) {
	s, pool := newScheme(t, 2, Config{BagSize: 64})
	fill(s.Guard(0), pool, 0, 63)
	if st := s.Stats(); st.Freed != 0 || st.Retired != 63 || st.Signals != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.LimboLen(0) != 63 {
		t.Fatalf("limbo = %d", s.LimboLen(0))
	}
}

func TestHiWatermarkSignalsAndReclaims(t *testing.T) {
	const threads, bag = 4, 64
	s, pool := newScheme(t, threads, Config{BagSize: bag})
	fill(s.Guard(0), pool, 0, bag+1)
	st := s.Stats()
	if st.Signals != threads-1 {
		t.Fatalf("signals = %d, want %d", st.Signals, threads-1)
	}
	if st.Freed != bag {
		t.Fatalf("freed = %d, want %d (all unreserved)", st.Freed, bag)
	}
	if s.LimboLen(0) != 1 {
		t.Fatalf("limbo = %d, want just the newest record", s.LimboLen(0))
	}
}

func TestReservationSurvivesReclaim(t *testing.T) {
	const bag = 64
	s, pool := newScheme(t, 2, Config{BagSize: bag})
	g0, g1 := s.Guard(0), s.Guard(1)

	// Thread 1 reserves a record and enters its write phase.
	target, _ := pool.Alloc(1)
	g1.BeginRead()
	g1.Reserve(0, target)
	g1.EndRead()

	// Thread 0 unlinks that record (conceptually) and floods its bag.
	g0.Retire(target)
	fill(g0, pool, 0, bag+1)

	if !pool.Valid(target) {
		t.Fatal("reserved record was freed during reclamation")
	}
	st := s.Stats()
	// The bag held target + (bag-1) fillers when the threshold tripped;
	// everything except the reservation is freed.
	if st.Freed != bag-1 {
		t.Fatalf("freed = %d, want %d (everything except the reservation)", st.Freed, bag-1)
	}

	// Once thread 1 starts a new read phase the reservation is cleared and
	// the record becomes reclaimable.
	g1.BeginRead()
	g1.EndRead()
	fill(g0, pool, 0, bag+1)
	if pool.Valid(target) {
		t.Fatal("record still live after its reservation was cleared")
	}
}

// TestQuiesceClearsPeerRow pins a drain against a peer's stale row: thread
// 1's last operation reserved a record and ended, and its row still names
// it; thread 0 retired that record. Thread 0's passes cannot free it until
// thread 1's own pass clears the row, so a drain over both threads frees it
// in its second round: two scans and two signals, both thread 0's.
func TestQuiesceClearsPeerRow(t *testing.T) {
	for _, plus := range []bool{false, true} {
		s, pool := newScheme(t, 2, Config{Plus: plus, BagSize: 64})
		g0, g1 := s.Guard(0), s.Guard(1)
		target, _ := pool.Alloc(1)
		g1.BeginOp()
		g1.BeginRead()
		g1.Reserve(0, target)
		g1.EndRead()
		g1.EndOp()
		g0.Retire(target)

		if !s.Quiesce(0, 1) {
			t.Fatalf("%s: drain left %d records unfreed", s.Name(), s.Stats().Garbage())
		}
		if pool.Valid(target) {
			t.Fatalf("%s: drained record still allocated", s.Name())
		}
		if st := s.Stats(); st.Scans != 2 || st.Signals != 2 {
			t.Fatalf("%s: drain took %d scans and %d signals, want 2 and 2", s.Name(), st.Scans, st.Signals)
		}
	}
}

func TestMarkedReservationProtectsRecord(t *testing.T) {
	// Harris-style code may reserve and retire marked handles; reclamation
	// must match them by record, not by bit pattern.
	const bag = 64
	s, pool := newScheme(t, 2, Config{BagSize: bag})
	g0, g1 := s.Guard(0), s.Guard(1)

	target, _ := pool.Alloc(1)
	g1.BeginRead()
	g1.Reserve(0, target.WithMark())
	g1.EndRead()

	g0.Retire(target.WithMark())
	fill(g0, pool, 0, bag+1)
	if !pool.Valid(target) {
		t.Fatal("marked reservation did not protect the record")
	}
}

func TestNeutralizationInReadPhase(t *testing.T) {
	s, _ := newScheme(t, 2, Config{})
	g0 := s.Guard(0).(*guard)
	g0.BeginRead()
	s.group.SignalAll(1)
	if !neutralized(func() { g0.Protect(0, mem.Null) }) {
		t.Fatal("restartable thread must be neutralized at the barrier")
	}
	if s.Stats().Neutralized != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestWritePhaseIgnoresSignal(t *testing.T) {
	s, _ := newScheme(t, 2, Config{})
	g0 := s.Guard(0).(*guard)
	g0.BeginRead()
	g0.EndRead()
	s.group.SignalAll(1)
	if neutralized(func() { g0.Protect(0, mem.Null) }) {
		t.Fatal("non-restartable thread must not restart")
	}
	if s.Stats().Ignored != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestEndReadRaceNeutralizes(t *testing.T) {
	// The §4.3 store-buffer race: the signal lands after BeginRead but
	// before EndRead's transition; the thread must restart, not write.
	s, _ := newScheme(t, 2, Config{})
	g0 := s.Guard(0).(*guard)
	g0.BeginRead()
	s.group.SignalAll(1)
	if !neutralized(func() { g0.EndRead() }) {
		t.Fatal("endΦread must neutralize when a signal raced the read phase")
	}
}

func TestBeginReadClearsReservations(t *testing.T) {
	const bag = 64
	s, pool := newScheme(t, 2, Config{BagSize: bag})
	g0, g1 := s.Guard(0), s.Guard(1)

	stale, _ := pool.Alloc(1)
	g1.BeginRead()
	g1.Reserve(0, stale)
	g1.EndRead()
	g1.BeginRead() // must wipe the reservation row (Algorithm 1 line 7)

	g0.Retire(stale)
	fill(g0, pool, 0, bag+1)
	if pool.Valid(stale) {
		t.Fatal("reservation from a previous operation blocked reclamation")
	}

	// BeginRead stores only to the slots Reserve marked dirty, yet the row
	// must read zero after it whatever the last operation reserved: one slot
	// of three, nothing (a Contains), or anything before a FullPass, which
	// clears the row and leaves the mask stale.
	s3, pool3 := newScheme(t, 2, Config{BagSize: bag, Slots: 3})
	peer, r := s3.gs[0], s3.gs[1]
	h := func() mem.Ptr { p, _ := pool3.Alloc(1); return p }
	reserved := h()
	steps := []struct {
		name string
		op   func()
	}{
		{"reserves slot 2 of 3", func() {
			r.BeginRead()
			r.Reserve(2, reserved)
			r.EndRead()
		}},
		{"reserves nothing", func() {
			r.BeginRead()
			r.EndRead()
		}},
		{"full pass", r.FullPass},
	}
	for _, step := range steps {
		step.op()
		r.BeginRead()
		for i := range r.row {
			if v := r.row[i].Load(); v != 0 {
				t.Fatalf("after %s: BeginRead left slot %d = %#x", step.name, i, v)
			}
		}
		retired := []mem.Ptr{h()}
		if step.name == "reserves slot 2 of 3" {
			retired = append(retired, reserved)
		}
		for _, p := range retired {
			peer.Retire(p)
		}
		peer.FullPass()
		for _, p := range retired {
			if pool3.Valid(p) {
				t.Fatalf("after %s: a record the peer retired was not freed", step.name)
			}
		}
	}
}

func TestOnStaleNeutralizesWhenSignalPending(t *testing.T) {
	s, pool := newScheme(t, 2, Config{})
	g0 := s.Guard(0).(*guard)
	p, _ := pool.Alloc(0)
	g0.BeginRead()
	// A peer signals and frees p (posts always precede frees in retire).
	s.group.SignalAll(1)
	pool.Free(1, p)
	if !neutralized(func() { g0.OnStale(p) }) {
		t.Fatal("stale read with pending signal must neutralize")
	}
}

func TestOnStaleWithoutSignalPanics(t *testing.T) {
	s, pool := newScheme(t, 2, Config{})
	g0 := s.Guard(0).(*guard)
	p, _ := pool.Alloc(0)
	pool.Free(1, p)
	g0.BeginRead()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unexplained stale read must panic")
		}
		if _, ok := r.(sigsim.Neutralized); ok {
			t.Fatal("must be a hard panic, not a neutralization")
		}
	}()
	g0.OnStale(p)
}

func TestExecuteRestartsBody(t *testing.T) {
	s, _ := newScheme(t, 2, Config{})
	g0 := s.Guard(0)
	attempts := 0
	v := smr.Execute(g0, func() int {
		attempts++
		g0.BeginRead()
		if attempts == 1 {
			s.group.SignalAll(1) // arrives mid-Φread on the first attempt
		}
		g0.Protect(0, mem.Null)
		g0.EndRead()
		return 7
	})
	if v != 7 || attempts != 2 {
		t.Fatalf("v=%d attempts=%d, want 7 and 2", v, attempts)
	}
}

func TestGarbageBoundHolds(t *testing.T) {
	// A stalled peer can pin at most R records via reservations; the bag
	// never exceeds BagSize + N·R live retired records (Lemma 10).
	const threads, bag = 4, 128
	s, pool := newScheme(t, threads, Config{BagSize: bag, Slots: 4})
	g0 := s.Guard(0)

	// Every peer stalls in a write phase holding reservations.
	var pinned []mem.Ptr
	for tid := 1; tid < threads; tid++ {
		g := s.Guard(tid)
		g.BeginRead()
		for i := 0; i < 4; i++ {
			p, _ := pool.Alloc(tid)
			g.Reserve(i, p)
			pinned = append(pinned, p)
		}
		g.EndRead()
	}
	for _, p := range pinned {
		g0.Retire(p)
	}
	for i := 0; i < 20*bag; i++ {
		p, _ := pool.Alloc(0)
		g0.Retire(p)
		if got, bound := s.LimboLen(0), s.ThreadBound(); got > bound {
			t.Fatalf("limbo %d exceeded bound %d", got, bound)
		}
	}
	for _, p := range pinned {
		if !pool.Valid(p) {
			t.Fatal("reservation violated during sustained reclamation")
		}
	}
}

func TestPlusHiWatermarkStampsEvenTimestamps(t *testing.T) {
	const bag = 64
	s, pool := newScheme(t, 2, Config{Plus: true, BagSize: bag})
	fill(s.Guard(0), pool, 0, bag+1)
	ts := s.announceTS[0].Load()
	if ts != 2 {
		t.Fatalf("announceTS = %d, want 2 (one complete RGP)", ts)
	}
	if st := s.Stats(); st.Freed != bag {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPlusPassiveReclamationWithoutSignals(t *testing.T) {
	const bag, scanFreq = 64, 4
	s, pool := newScheme(t, 2, Config{Plus: true, BagSize: bag, ScanFreq: scanFreq})
	g0, g1 := s.Guard(0), s.Guard(1)

	// Thread 0 crosses its LoWatermark and bookmarks.
	lo := bag / 2
	fill(g0, pool, 0, lo+1)

	// Thread 1 performs a complete RGP (HiWatermark reclamation).
	fill(g1, pool, 1, bag+1)

	// Thread 0 keeps retiring; within ScanFreq retires it must detect the
	// RGP and reclaim its bookmarked prefix without signalling anyone.
	before := s.group.Stats().Sent
	fill(g0, pool, 0, scanFreq+1)
	after := s.group.Stats().Sent
	if after != before {
		t.Fatal("passive reclamation must not send signals")
	}
	g := g0.(*guard)
	if g.Freed.Load() == 0 {
		t.Fatal("LoWatermark thread never reclaimed after observing the RGP")
	}
	if s.LimboLen(0) >= lo+1 {
		t.Fatalf("bookmarked prefix not reclaimed, limbo = %d", s.LimboLen(0))
	}
}

func TestPlusIncompleteRGPDoesNotReclaim(t *testing.T) {
	// A timestamp advance of +1 means a broadcast is in flight; reclaiming
	// on it would race threads not yet signalled (the paper's T1/T2/T3
	// example). Only +2 proves a complete RGP.
	const bag, scanFreq = 64, 4
	s, pool := newScheme(t, 2, Config{Plus: true, BagSize: bag, ScanFreq: scanFreq})
	g0 := s.Guard(0)
	fill(g0, pool, 0, bag/2+1) // bookmark + snapshot

	s.announceTS[1].Add(1) // peer is mid-broadcast: odd, advanced by 1
	fill(g0, pool, 0, scanFreq+1)
	if g := g0.(*guard); g.Freed.Load() != 0 {
		t.Fatal("reclaimed on an incomplete RGP")
	}

	s.announceTS[1].Add(1) // broadcast complete: +2 since snapshot
	fill(g0, pool, 0, scanFreq+1)
	if g := g0.(*guard); g.Freed.Load() == 0 {
		t.Fatal("failed to reclaim after a complete RGP")
	}
}

func TestPlusMidRGPSnapshotRequiresFullPostBookmarkRGP(t *testing.T) {
	// The bookmark may snapshot a peer *mid*-RGP (odd timestamp). A naive
	// snapshot+2 comparison is then odd as well — an RGP that has merely
	// begun — so the bookmarked prefix could be freed before any complete
	// post-bookmark broadcast. The snapshot must round up to the next even
	// value (the in-flight RGP's end) before the +2 comparison.
	const bag, scanFreq = 64, 4
	s, pool := newScheme(t, 2, Config{Plus: true, BagSize: bag, ScanFreq: scanFreq})
	g0 := s.Guard(0)

	s.announceTS[1].Add(1)     // pin the peer mid-RGP (odd)…
	fill(g0, pool, 0, bag/2+1) // …so the bookmark snapshots the odd value

	s.announceTS[1].Add(1) // the pre-bookmark RGP ends
	fill(g0, pool, 0, scanFreq+1)
	if g := g0.(*guard); g.Freed.Load() != 0 {
		t.Fatal("reclaimed on an RGP that began before the bookmark")
	}

	s.announceTS[1].Add(1) // a post-bookmark RGP begins: odd, == snapshot+2
	fill(g0, pool, 0, scanFreq+1)
	if g := g0.(*guard); g.Freed.Load() != 0 {
		t.Fatal("reclaimed on a begun-but-unfinished post-bookmark RGP")
	}

	s.announceTS[1].Add(1) // the post-bookmark RGP ends: even, rounded+2
	fill(g0, pool, 0, scanFreq+1)
	if g := g0.(*guard); g.Freed.Load() == 0 {
		t.Fatal("failed to reclaim after a complete post-bookmark RGP")
	}
}

func TestPlusRebookmarksAfterReclaim(t *testing.T) {
	const bag, scanFreq = 64, 2
	s, pool := newScheme(t, 2, Config{Plus: true, BagSize: bag, ScanFreq: scanFreq})
	g0 := s.Guard(0)
	for round := 0; round < 3; round++ {
		fill(g0, pool, 0, bag/2+1)
		s.announceTS[1].Add(2)
		fill(g0, pool, 0, scanFreq+1)
	}
	if g := g0.(*guard); g.Freed.Load() == 0 {
		t.Fatal("no reclamation across rounds")
	}
	if s.LimboLen(0) >= bag {
		t.Fatal("repeated LoWatermark cycles never drained the bag")
	}
}

func TestStatsAggregation(t *testing.T) {
	const bag = 32
	s, pool := newScheme(t, 3, Config{BagSize: bag})
	fill(s.Guard(0), pool, 0, bag+1)
	fill(s.Guard(1), pool, 1, bag+1)
	st := s.Stats()
	if st.Retired != 2*(bag+1) {
		t.Fatalf("retired = %d", st.Retired)
	}
	if st.Signals != 2*2 {
		t.Fatalf("signals = %d, want 4", st.Signals)
	}
	if st.Scans != 2 {
		t.Fatalf("scans = %d", st.Scans)
	}
	if st.Garbage() != 2 {
		t.Fatalf("garbage = %d, want 2", st.Garbage())
	}
}
