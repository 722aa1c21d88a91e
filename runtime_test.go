package nbr_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr"
	"nbr/internal/catalog"
	"nbr/internal/dstest"
)

// TestRuntimeMultiStructureChurn is the multi-structure lease-churn suite:
// one runtime, three structures, every scheme — workers churn all three
// sets under one lease each while a sampler holds the aggregated garbage
// bound, then the runtime drains to Retired == Freed (see dstest.RuntimeChurn
// for the contract details).
func TestRuntimeMultiStructureChurn(t *testing.T) {
	for _, scheme := range nbr.Schemes() {
		t.Run(scheme, func(t *testing.T) { dstest.RuntimeChurn(t, scheme) })
	}
}

// TestRuntimeAcquireCtxCancellation pins admission control under a full
// registry: AcquireCtx honors the context deadline while every slot is
// held, and admits promptly once a slot frees.
func TestRuntimeAcquireCtxCancellation(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}

	a, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	// Full registry + deadline: the waiter must come back with the
	// context's error, not ErrNoLease, and must leave the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := rt.AcquireCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AcquireCtx under a full registry: got %v, want DeadlineExceeded", err)
	}
	if w := rt.Snapshot(0).Waiters; w != 0 {
		t.Fatalf("cancelled waiter still queued: %d", w)
	}

	// A pre-cancelled context never waits.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := rt.AcquireCtx(dead); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled AcquireCtx: got %v", err)
	}

	// A release admits a blocked waiter.
	got := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l, err := rt.AcquireCtx(ctx)
		if err == nil {
			l.Release()
		}
		got <- err
	}()
	for i := 0; rt.Snapshot(0).Waiters == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	a.Release()
	if err := <-got; err != nil {
		t.Fatalf("waiter not admitted after release: %v", err)
	}
	b.Release()
}

// TestRuntimeAcquireCtxFIFO pins waiter-queue fairness: blocked AcquireCtx
// callers are admitted in arrival order as slots free up.
func TestRuntimeAcquireCtxFIFO(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*nbr.Lease, 2)
	for i := range held {
		if held[i], err = rt.Acquire(); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var order []int
	admitted := make(chan struct{}, 2)
	releaseMe := make(chan struct{})
	var wg sync.WaitGroup
	waiter := func(id int) {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		l, err := rt.AcquireCtx(ctx)
		if err != nil {
			t.Errorf("waiter %d: %v", id, err)
			admitted <- struct{}{}
			return
		}
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
		admitted <- struct{}{}
		<-releaseMe // hold the lease so this admission cannot admit the next
		l.Release()
	}

	// Enqueue waiter 1 first, then waiter 2 (each provably queued before
	// the next step).
	wg.Add(2)
	go waiter(1)
	for i := 0; rt.Snapshot(0).Waiters < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	go waiter(2)
	for i := 0; rt.Snapshot(0).Waiters < 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if rt.Snapshot(0).Waiters != 2 {
		t.Fatalf("waiters = %d, want 2", rt.Snapshot(0).Waiters)
	}

	// One release, one admission — the head of the queue.
	held[0].Release()
	<-admitted
	mu.Lock()
	first := append([]int(nil), order...)
	mu.Unlock()
	if len(first) != 1 || first[0] != 1 {
		t.Fatalf("first admission order = %v, want [1]", first)
	}
	held[1].Release() // second slot admits waiter 2
	<-admitted
	mu.Lock()
	final := append([]int(nil), order...)
	mu.Unlock()
	if len(final) != 2 || final[1] != 2 {
		t.Fatalf("admission order = %v, want [1 2]", final)
	}
	close(releaseMe)
	wg.Wait()
}

// TestRuntimeAdmissionNoStarvation pins FIFO admission in a closed loop: 12
// workers share 8 slots, each looping With over CPU-bound sessions of about
// a millisecond. A worker that releases and calls With again must queue
// behind the waiters already there. When it could retake its own freed slot
// first, the woken head went back to the tail, and a third of the workers
// finished one session in the whole window.
func TestRuntimeAdmissionNoStarvation(t *testing.T) {
	const workers, slots, window = 12, 8, 300 * time.Millisecond
	for _, scheme := range []string{"nbr+", "debra", "hp"} {
		t.Run(scheme, func(t *testing.T) {
			rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: scheme, MaxThreads: slots})
			if err != nil {
				t.Fatal(err)
			}
			set, err := rt.NewSet("lazylist")
			if err != nil {
				t.Fatal(err)
			}
			session := func(l *nbr.Lease, w int) error {
				// Time-bounded, so a -race build keeps the same session
				// length. The yield between chunks sends the holder through
				// the scheduler's FIFO global queue: without it a holder
				// preempted mid-session can sit there while the admission
				// handoffs keep every P busy, which is scheduler starvation,
				// not admission starvation.
				for begin := time.Now(); time.Since(begin) < time.Millisecond; runtime.Gosched() {
					for i := 0; i < 64; i++ {
						k := uint64(w*64+i) + 1
						set.Insert(l, k)
						set.Delete(l, k)
					}
				}
				return nil
			}
			sessions := make([]int, workers)
			stop := time.Now().Add(window)
			var wg sync.WaitGroup
			for w := range sessions {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for time.Now().Before(stop) {
						err := rt.With(context.Background(), func(l *nbr.Lease) error { return session(l, w) })
						if err != nil {
							t.Errorf("worker %d: %v", w, err)
							return
						}
						sessions[w]++
					}
				}(w)
			}
			wg.Wait()
			t.Logf("sessions per worker: %v", sessions)
			for _, n := range sessions {
				if n < 2 {
					t.Fatalf("a worker finished under 2 sessions in %v", window)
				}
			}
		})
	}
}

// TestRuntimeSharedLeaseAcrossSets pins the tentpole contract: one lease
// operates on every attached structure, records retired into the shared
// bags route back to their owning pools, and the runtime drains clean.
func TestRuntimeSharedLeaseAcrossSets(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 4, BagSize: 128, ScanFreq: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"lazylist", "harris", "dgt"}
	sets := make([]*nbr.Set, len(names))
	for i, n := range names {
		if sets[i], err = rt.NewSet(n); err != nil {
			t.Fatal(err)
		}
	}
	got := rt.Structures()
	if len(got) != 3 || got[0] != "lazylist" || got[2] != "dgt" {
		t.Fatalf("Structures() = %v", got)
	}

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := uint64(i%63) + 1
		s := sets[i%len(sets)]
		s.Insert(l, key)
		if i%2 == 0 {
			s.Delete(l, key)
		}
	}
	l.Release()

	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Retired != st.Freed {
		t.Fatalf("shared bags leaked: retired %d != freed %d", st.Retired, st.Freed)
	}
	if b := rt.GarbageBound(); b != nbr.Unbounded && st.Garbage() > uint64(b) {
		t.Fatalf("garbage %d exceeds aggregated bound %d", st.Garbage(), b)
	}
	var liveSum int64
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		liveSum += s.MemStats().Live
	}
	if agg := rt.MemStats(); agg.Live != liveSum {
		t.Fatalf("aggregated MemStats.Live = %d, per-set sum = %d", agg.Live, liveSum)
	}
}

// TestRuntimeWidthNarrowing pins the narrow-width fast path: a runtime's
// scheme is built lazily at the widths its attached structures declare, not
// at the conservative global defaults, so scans under Runtime visit exactly
// as many announcement rows as the widest attached structure declares.
func TestRuntimeWidthNarrowing(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	if s, r := rt.Widths(); s != 2 || r != 2 {
		t.Fatalf("lazylist-only runtime widths = %d/%d, want 2/2", s, r)
	}
	// A wider attachment grows the not-yet-built scheme monotonically.
	if _, err := rt.NewSet("dgt"); err != nil {
		t.Fatal(err)
	}
	if s, r := rt.Widths(); s != 3 || r != 3 {
		t.Fatalf("lazylist+dgt runtime widths = %d/%d, want 3/3", s, r)
	}

	// The widths must match what the widest structure declares exactly.
	dgt, err := catalog.NewDS("dgt", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s, r := rt.Widths(); s != dgt.Req.Slots || r != dgt.Req.Reservations {
		t.Fatalf("Runtime widths %d/%d != dgt's declared widths %d/%d", s, r, dgt.Req.Slots, dgt.Req.Reservations)
	}

	l, err := rt.Acquire() // freezes the widths
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if s, r := rt.Widths(); s != 3 || r != 3 {
		t.Fatalf("widths changed across materialization: %d/%d", s, r)
	}
}

// TestRuntimePostLeaseWidening pins the freeze: once a lease has been
// handed out the scheme's announcement widths cannot grow, so an attachment
// declaring wider needs is rejected — while one that fits still attaches.
func TestRuntimePostLeaseWidening(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("harris"); err == nil {
		t.Fatal("harris (3 protect slots) must not widen a materialized 2-slot scheme")
	}
	// hmlist declares the same widths as lazylist: it must attach late and
	// be fully usable under the live lease.
	s, err := rt.NewSet("hmlist")
	if err != nil {
		t.Fatalf("width-compatible late attach rejected: %v", err)
	}
	s.Insert(l, 9)
	if !s.Contains(l, 9) {
		t.Fatal("late-attached set unusable under a live lease")
	}
	s.Delete(l, 9)
	l.Release()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeStagedFreesDrain pins through the public API that a record the
// scheme counts freed is back with its pool in the same call, however the
// retire stream interleaves structures: mid-lease the pools' Frees equal the
// scheme's Freed, StagedFrees reads zero, and the books balance after Drain.
func TestRuntimeStagedFreesDrain(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2, BagSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"lazylist", "harris", "dgt"}
	sets := make([]*nbr.Set, len(names))
	for i, n := range names {
		if sets[i], err = rt.NewSet(n); err != nil {
			t.Fatal(err)
		}
	}
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin insert/delete pairs: the adversarially interleaved retire
	// stream, every reclamation burst carrying all three owners.
	for i := 0; i < 4000; i++ {
		s := sets[i%len(sets)]
		key := uint64(i%97) + 1
		s.Insert(l, key)
		s.Delete(l, key)
	}
	// One goroutine, so no structure freed a record privately: every pool
	// free came through the scheme.
	if frees, freed := rt.MemStats().Frees, rt.Stats().Freed; freed == 0 || frees != freed {
		t.Fatalf("mid-lease the pools counted %d frees, the scheme %d freed: a reclaimed record is not back with its allocator", frees, freed)
	}
	l.Release()
	if staged := rt.StagedFrees(); staged != 0 {
		t.Fatalf("StagedFrees = %d after every lease released, want 0", staged)
	}
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Retired != st.Freed {
		t.Fatalf("retired %d != freed %d", st.Retired, st.Freed)
	}
	if staged := rt.StagedFrees(); staged != 0 {
		t.Fatalf("StagedFrees = %d after drain, want 0", staged)
	}
}

// TestRuntimeDrainUnderTraffic calls Drain while With sessions churn a list
// under qsbr: a drain under traffic is a capped best effort, so each call
// must return, and with two workers on four slots nobody can queue, so each
// must succeed. Once the sessions stop, one more Drain must free every
// retired record.
func TestRuntimeDrainUnderTraffic(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "qsbr", MaxThreads: 4, Threshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}
	var sessions atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := uint64(0); ; s++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := rt.With(context.Background(), func(l *nbr.Lease) error {
					set.Insert(l, w<<32|s%64)
					set.Delete(l, w<<32|s%64)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				sessions.Add(1)
			}
		}()
	}
	// Drain only while sessions run: from their 100th until 100 more.
	for sessions.Load() < 100 {
		time.Sleep(time.Millisecond)
	}
	drains := 0
	for until := sessions.Load() + 100; sessions.Load() < until; drains++ {
		if err := rt.Drain(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := rt.Stats(); st.Freed == 0 || st.Retired != st.Freed {
		t.Fatalf("quiescent drain after %d under traffic left retired %d, freed %d", drains, st.Retired, st.Freed)
	}
}

// TestRuntimeCrossRuntimePanics pins the misuse guard: a lease from one
// runtime must not drive a set attached to another.
func TestRuntimeCrossRuntimePanics(t *testing.T) {
	rtA, _ := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	rtB, _ := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 2})
	setB, err := rtB.NewSet("lazylist")
	if err != nil {
		t.Fatal(err)
	}
	l, err := rtA.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("cross-runtime lease use must panic")
		}
	}()
	setB.Insert(l, 1)
}

// TestRuntimeRejectsBadAttachments pins NewSet's gatekeeping: Table 1
// violations and unknown structures are refused.
func TestRuntimeRejectsBadAttachments(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "nbr+"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("hmlist-norestart"); err == nil {
		t.Fatal("hmlist-norestart under NBR+ must be rejected (Requirement 12)")
	}
	if _, err := rt.NewSet("bogus"); err == nil {
		t.Fatal("unknown structure must be rejected")
	}
	rtHP, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "hp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtHP.NewSet("abtree"); err == nil {
		t.Fatal("abtree under HP must be rejected (no reachability validation)")
	}
}

// TestRuntimeUnknownNames pins where and how a Runtime refuses names it does
// not have: an unknown scheme fails NewRuntime itself (not the first Acquire,
// deep inside a request), an unknown structure fails NewSet, and each is
// reported as unknown — not blamed on Table 1 — with no error naming the
// benchmark harness.
func TestRuntimeUnknownNames(t *testing.T) {
	check := func(call string, err error, want string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded; unknown names must be refused", call)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "nbr: ") || !strings.Contains(msg, want) ||
			strings.Contains(msg, "Table 1") || strings.Contains(msg, "bench") {
			t.Errorf("%s = %q; want an nbr: error saying %s, with no mention of Table 1 or the harness", call, msg, want)
		}
	}
	_, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "bogus"})
	check(`NewRuntime(Scheme: "bogus")`, err, `unknown scheme "bogus"`)
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.NewSet("bogus")
	check(`NewSet("bogus")`, err, `unknown data structure "bogus"`)
}

// TestRuntimeGarbageAgeEveryScheme pins that the flight recorder's
// garbage_age histogram fills under every scheme that frees records: the
// retire path samples one record per handoff in the limbo kernel, which
// every scheme shares, and the bound registry hands every scheme its
// recorder. Sessions churn a list under With, then Drain frees what is left,
// so every sampled record reaches the hub's free seam.
func TestRuntimeGarbageAgeEveryScheme(t *testing.T) {
	for _, scheme := range nbr.Schemes() {
		if scheme == "none" {
			continue // never frees: no record has an age to measure
		}
		t.Run(scheme, func(t *testing.T) {
			rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: scheme, MaxThreads: 4, BagSize: 64, Threshold: 64})
			if err != nil {
				t.Fatal(err)
			}
			rt.Observe(true)
			set, err := rt.NewSet("lazylist")
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for s := uint64(0); s < 200; s++ {
				if err := rt.With(ctx, func(l *nbr.Lease) error {
					for k := s * 8; k < s*8+8; k++ {
						set.Insert(l, k)
					}
					for k := s * 8; k < s*8+8; k++ {
						set.Delete(l, k)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Drain(); err != nil {
				t.Fatal(err)
			}
			snap := rt.Snapshot(0)
			if snap.Stats.Freed == 0 {
				t.Fatal("nothing was freed; the churn did not exercise reclamation")
			}
			age := -1
			for _, h := range snap.Recorder.Hists {
				if h.Name == "garbage_age" {
					age = int(h.Count)
				}
			}
			if age <= 0 {
				t.Fatalf("garbage_age holds %d samples after %d records were freed", age, snap.Stats.Freed)
			}
		})
	}
}
