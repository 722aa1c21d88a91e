package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// TestConcurrentRetireStorm hammers retire/reclaim from every thread while
// each thread also cycles read/write phases with live reservations. The
// pool's generation CAS panics on any double free, and reserved handles are
// asserted live right after each write phase — a concurrency soak for the
// reader/writer/reclaimer handshakes.
func TestConcurrentRetireStorm(t *testing.T) {
	const threads = 6
	const iters = 4000
	s, pool := newScheme(t, threads, Config{BagSize: 64, Slots: 2})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for i := 0; i < iters; i++ {
				smr.Execute(g, func() struct{} {
					g.BeginRead()
					g.Protect(0, mem.Null)
					// Allocate in the write phase, reserve, verify the
					// reservation holds across a retire burst.
					g.Reserve(0, mem.Null)
					g.EndRead()
					h, _ := pool.Alloc(tid)
					g.Retire(h)
					return struct{}{}
				})
			}
		}(tid)
	}
	wg.Wait()
	st := s.Stats()
	if st.Retired != threads*iters {
		t.Fatalf("retired = %d, want %d", st.Retired, threads*iters)
	}
	if st.Freed == 0 {
		t.Fatal("storm never reclaimed")
	}
	for tid := 0; tid < threads; tid++ {
		if got, bound := s.LimboLen(tid), s.ThreadBound(); got > bound {
			t.Fatalf("thread %d limbo %d exceeds bound %d", tid, got, bound)
		}
	}
}

// TestConcurrentReservationsNeverFreed keeps each thread holding a reserved
// record through a write phase while all threads flood reclamation; any
// freed-while-reserved record trips the MustGet-style validity assert.
func TestConcurrentReservationsNeverFreed(t *testing.T) {
	const threads = 4
	const iters = 2500
	s, pool := newScheme(t, threads, Config{BagSize: 64, Slots: 2})
	var violations atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for i := 0; i < iters; i++ {
				smr.Execute(g, func() struct{} {
					g.BeginRead()
					g.EndRead()
					// Write phase: publish a record, hand it to a peer's
					// conceptual "unlink" (retire through our own guard),
					// while reserving it first.
					h, _ := pool.Alloc(tid)
					g.BeginRead()
					g.Protect(0, h)
					g.Reserve(0, h)
					g.EndRead()
					g.Retire(h) // reserved by us: must survive any reclaim
					if !pool.Valid(h) {
						violations.Add(1)
					}
					return struct{}{}
				})
			}
		}(tid)
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d reserved records were freed", violations.Load())
	}
}

// TestConcurrentNeutralizationStorm runs pure readers against retire-heavy
// reclaimers: readers must observe neutralizations (their phases overlap
// signal broadcasts) and never deadlock or leak restarts.
func TestConcurrentNeutralizationStorm(t *testing.T) {
	const readers = 3
	const reclaimers = 2
	s, pool := newScheme(t, readers+reclaimers, Config{BagSize: 32})
	var stop atomic.Bool
	var wg sync.WaitGroup

	for tid := 0; tid < readers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for !stop.Load() {
				smr.Execute(g, func() struct{} {
					g.BeginRead()
					for j := 0; j < 32; j++ {
						g.Protect(0, mem.Null) // poll barrier
					}
					g.EndRead()
					return struct{}{}
				})
			}
		}(tid)
	}
	var stopReclaim atomic.Bool
	for tid := readers; tid < readers+reclaimers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for i := 0; i < 3000 || !stopReclaim.Load(); i++ {
				h, _ := pool.Alloc(tid)
				g.Retire(h)
			}
		}(tid)
	}
	// A signal only neutralizes if it lands *inside* a read phase
	// (SetRestartable absorbs anything posted earlier), so a fixed-length
	// storm can in principle miss every reader's window — the storm must
	// run until a neutralization is actually observed, bounded by a
	// deadline that turns genuine breakage into the assertion failures
	// below. The yield keeps this wait loop from starving the workers on
	// small GOMAXPROCS.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Neutralized == 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	stopReclaim.Store(true)
	stop.Store(true)
	wg.Wait()

	st := s.Stats()
	if st.Neutralized == 0 {
		t.Fatal("no reader was ever neutralized under a signal storm")
	}
	if st.Signals == 0 {
		t.Fatal("reclaimers never signalled")
	}
}

// TestEndReadPublishesReservations pins the ordering endΦread must give
// (sigsim.ClearRestartable): a reclaimer that posts to a reader inside its
// read phase and then collects the reservation rows either neutralizes that
// read phase or finds the reservation the reader made before EndRead. The
// reader spins a varying while between announcing its phase and reserving,
// so on many rounds both the post and the scan land before the reservation
// store; only EndRead's pending check then keeps the reader out of a write
// phase the scan did not see.
func TestEndReadPublishesReservations(t *testing.T) {
	const rounds = 4000
	s, pool := newScheme(t, 2, Config{})
	hs := make([]mem.Ptr, rounds+1)
	for r := 1; r <= rounds; r++ {
		hs[r], _ = pool.Alloc(0)
	}
	// Round numbers: inPhase and done are the reader's, scanned the
	// reclaimer's. restarted[r] is written before done reaches r.
	var inPhase, done, scanned atomic.Int64
	restarted := make([]bool, rounds+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := s.Guard(0)
		for r := 1; r <= rounds; r++ {
			restarted[r] = neutralized(func() {
				g.BeginRead()
				inPhase.Store(int64(r))
				acc := uint64(0)
				for i := 0; i < r%16*256; i++ {
					acc = acc*31 + uint64(i)
				}
				spinSink = acc
				g.Reserve(0, hs[r])
				g.EndRead()
			})
			done.Store(int64(r))
			spinUntil(&scanned, r)
		}
	}()
	rg := s.gs[1]
	misses, restarts := 0, 0
	for r := 1; r <= rounds; r++ {
		spinUntil(&inPhase, r)
		s.group.SignalAll(1)
		rg.collect()
		found := rg.scan.Contains(hs[r])
		spinUntil(&done, r)
		if restarted[r] {
			restarts++
		} else if !found {
			misses++
		}
		scanned.Store(int64(r))
	}
	wg.Wait()
	if misses > 0 {
		t.Fatalf("%d of %d rounds left the read phase unneutralized with a reservation the scan missed", misses, rounds)
	}
	t.Logf("%d of %d rounds neutralized", restarts, rounds)
}

// spinSink keeps TestEndReadPublishesReservations' spin from being optimized
// away.
var spinSink uint64

// spinUntil busy-waits for v to reach r. A yield on every check costs a
// scheduler round trip far longer than the windows the test aims at, so it
// yields only after a long stretch, which keeps one-P runs progressing.
func spinUntil(v *atomic.Int64, r int) {
	for i := 1; v.Load() < int64(r); i++ {
		if i%(1<<16) == 0 {
			runtime.Gosched()
		}
	}
}

// TestPlusConcurrentPassiveReclaim: a LoWatermark thread must piggyback on
// other threads' RGPs concurrently (not just in the deterministic unit
// test).
func TestPlusConcurrentPassiveReclaim(t *testing.T) {
	const threads = 3
	s, pool := newScheme(t, threads, Config{Plus: true, BagSize: 64, ScanFreq: 2})
	var wg sync.WaitGroup

	// Thread 0 trickles retires, staying between Lo and Hi.
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := s.Guard(0).(*guard)
		for i := 0; i < 40; i++ {
			h, _ := pool.Alloc(0)
			g.Retire(h)
		}
		// Park between watermarks until a peer's RGP is observed, then
		// keep trickling so the scan runs.
		for i := 0; i < 2000 && g.Freed.Load() == 0; i++ {
			h, _ := pool.Alloc(0)
			g.Retire(h)
			if s.LimboLen(0) >= 60 { // stay under HiWatermark
				g.reclaimSelfCheck(t)
				break
			}
		}
	}()
	// Peers run full RGPs.
	for tid := 1; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for i := 0; i < 500; i++ {
				h, _ := pool.Alloc(tid)
				g.Retire(h)
			}
		}(tid)
	}
	wg.Wait()
	g := s.Guard(0).(*guard)
	if g.Freed.Load() == 0 && s.LimboLen(0) >= 64 {
		t.Fatal("LoWatermark thread neither reclaimed nor stayed below HiWatermark")
	}
}

// reclaimSelfCheck is a test hook asserting the guard's limbo never exceeds
// the configured bound mid-run.
func (g *guard) reclaimSelfCheck(t *testing.T) {
	if len(g.Bag) > g.s.ThreadBound() {
		t.Errorf("limbo %d exceeds bound %d", len(g.Bag), g.s.ThreadBound())
	}
}

// TestQuickPhaseMachine drives a single guard through random phase
// sequences and checks the state machine invariants the scheme relies on:
// restartable only between BeginRead and EndRead, pending never delivered
// late, limbo bounded.
func TestQuickPhaseMachine(t *testing.T) {
	s, pool := newScheme(t, 2, Config{BagSize: 32, Slots: 2})
	g := s.Guard(0).(*guard)
	inRead := false
	f := func(action uint8, slot uint8) bool {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sigsim.Neutralized); !ok {
					panic(r)
				}
				inRead = false // unwound to the checkpoint
			}
		}()
		switch action % 5 {
		case 0:
			g.BeginRead()
			inRead = true
		case 1:
			if inRead {
				p, _ := pool.Alloc(0)
				g.Reserve(int(slot)%2, p)
			}
		case 2:
			if inRead {
				g.EndRead()
				inRead = false
			}
		case 3:
			g.Protect(0, mem.Null)
		case 4:
			h, _ := pool.Alloc(0)
			g.Retire(h)
		}
		return len(g.Bag) <= s.ThreadBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestSignalStatsConsistency: every neutralization or ignore corresponds to
// at least one posted signal.
func TestSignalStatsConsistency(t *testing.T) {
	const threads = 4
	s, pool := newScheme(t, threads, Config{BagSize: 32})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := s.Guard(tid)
			for i := 0; i < 1500; i++ {
				smr.Execute(g, func() struct{} {
					g.BeginRead()
					g.Protect(0, mem.Null)
					g.EndRead()
					h, _ := pool.Alloc(tid)
					g.Retire(h)
					return struct{}{}
				})
			}
		}(tid)
	}
	wg.Wait()
	st := s.Stats()
	if st.Neutralized+st.Ignored > st.Signals {
		t.Fatalf("more deliveries (%d) than signals (%d)",
			st.Neutralized+st.Ignored, st.Signals)
	}
	if st.Signals == 0 || st.Freed == 0 {
		t.Fatalf("storm produced no reclamation traffic: %+v", st)
	}
}
