package dstest

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Lease is Kill with only clean sessions: the dynamic-membership stress.
// More worker goroutines than registry slots wait for a lease (AcquireCtx,
// the blocking admission path), run a burst of operations, release, and
// loop — so slots are constantly recycled mid-traffic, departing threads
// orphan mid-protocol bags, and reclaimers adopt them, all under the live
// GarbageBound contract.
func Lease(t *testing.T, f Factory, scheme string) { churnLeases(t, f, scheme, false) }

// Kill is the holder-death suite: lease holders that never release. Workers
// churn sessions as in Lease, but a third of the sessions end badly — the
// holder either panics mid-burst (the panic-unwind release path must still
// quiesce the slot) or wedges with the lease held (the reaper revokes it
// through Registry.Revoke, running the shared recovery path from a foreign
// goroutine).
func Kill(t *testing.T, f Factory, scheme string) { churnLeases(t, f, scheme, true) }

// churnLeases is the one lease-churn driver behind Lease and Kill (kills
// selects the holder deaths). After the churn a deterministic scenario
// freezes a holder mid-read-phase and revokes it, asserting that on a
// signal-capable scheme the zombie is killed (sigsim.Revoked) the moment it
// resumes. Both suites then demand full recovery: no tid ever leased to two
// goroutines at once (recycled-slot aliasing), every slot — reaped ones
// included — reusable, drain to Retired == Freed with an empty orphan list,
// the declared GarbageBound held throughout, and every zombie's late
// Release a counted no-op.
//
//nbr:allow readphase — this harness manufactures protocol violations on purpose: holders freeze inside read phases so the watchdog/revocation machinery has something to kill; the orchestrating goroutine is never neutralized itself
//nbr:allow leaseescape — wedged holders hand their lease to the reaper over a channel precisely to exercise cross-goroutine revocation recovery
func churnLeases(t *testing.T, f Factory, scheme string, kills bool) {
	const (
		maxThreads = 8
		workers    = 12 // > maxThreads: acquires contend and slots recycle
		sessionOps = 60
		// acquireWait bounds every lease wait: a registry still full after
		// it has stranded a slot.
		acquireWait = 30 * time.Second
	)
	sessions := 40
	if testing.Short() {
		sessions = 8
	}

	inst := f.New(maxThreads)
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, maxThreads, catalog.StressSchemeConfig(), inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	reg := smr.NewRegistry(maxThreads)
	reg.Bind(sch)
	acquire := func() (*smr.Lease, error) {
		ctx, cancel := context.WithTimeout(context.Background(), acquireWait)
		defer cancel()
		return reg.AcquireCtx(ctx)
	}

	// owners counts concurrent lease holders per tid: two at once is the
	// recycled-tid aliasing the quarantine exists to prevent. A wedged
	// holder gives up its count before handing the lease to the reaper: its
	// ownership truly ends at Revoke, and the slot cannot be re-served
	// before that.
	var owners [maxThreads]atomic.Int32

	stopWatch := watchBound(func() uint64 { return sch.Stats().Garbage() }, sch.GarbageBound)

	// The reaper: wedged holders' leases arrive here; each is revoked — the
	// shared recovery path runs on THIS goroutine, not the holder's — and
	// then given the zombie's late Release, which must be a counted no-op.
	reap := make(chan *smr.Lease, workers)
	reaperDone := make(chan struct{})
	var reaped, lateReleases atomic.Uint64
	go func() {
		defer close(reaperDone)
		for l := range reap {
			if !reg.Revoke(l) {
				t.Error("Revoke of a wedged holder's lease reported already-released")
				continue
			}
			reaped.Add(1)
			l.Release() // the zombie waking up late
			lateReleases.Add(1)
		}
	}()

	errKill := errors.New("dstest: injected holder panic")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*6364136223846793005 + 11))
			for s := 0; s < sessions; s++ {
				l, err := acquire()
				if err != nil {
					t.Error(err)
					return
				}
				tid := l.Tid()
				if owners[tid].Add(1) != 1 {
					t.Errorf("tid %d leased to two goroutines at once (recycled-slot aliasing)", tid)
					owners[tid].Add(-1)
					l.Release()
					return
				}
				mode := 0 // 0: clean, 1: panic mid-burst, 2: wedge
				if kills {
					mode = s % 3
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							if r != errKill {
								panic(r)
							}
							// The panic-unwind release: same shared recovery
							// path as a clean release, from a recover block.
							owners[tid].Add(-1)
							l.Release()
						}
					}()
					g := sch.Guard(tid)
					for i := 0; i < sessionOps; i++ {
						if mode == 1 && i == sessionOps/2 {
							panic(errKill)
						}
						key := uint64(rng.Intn(48)) + 1
						if rng.Intn(3) == 0 {
							inst.Set.Insert(g, key)
						} else {
							inst.Set.Delete(g, key) // delete-heavy: retire traffic
						}
					}
					owners[tid].Add(-1)
					if mode == 2 {
						reap <- l // wedged: never releases; the reaper must
						return
					}
					l.Release()
				}()
			}
		}(w)
	}
	wg.Wait()

	// Deterministic mid-operation freeze: a holder enters a read phase and
	// stops; the reaper revokes it. On a signal-capable scheme the zombie
	// must be killed the moment it resumes — terminally (Revoked), not
	// restarted (Neutralized) onto a slot that may have a successor.
	if l, err := acquire(); err == nil {
		fg := sch.Guard(l.Tid())
		fg.BeginOp()
		fg.BeginRead()
		if !reg.Revoke(l) {
			t.Error("Revoke of the frozen holder reported already-released")
		} else {
			reaped.Add(1)
			if scheme == "nbr" || scheme == "nbr+" {
				killed := func() (hit bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(sigsim.Revoked); !ok {
								panic(r)
							}
							hit = true
						}
					}()
					fg.EndRead()
					return false
				}()
				if !killed {
					t.Error("frozen holder resumed its read phase without being killed by the revocation")
				}
			}
			l.Release() // zombie's late release
			lateReleases.Add(1)
		}
	} else {
		t.Errorf("could not acquire a slot for the freeze scenario: %v", err)
	}

	close(reap)
	<-reaperDone
	if g, b, violated := stopWatch(); violated {
		t.Fatalf("garbage-bound contract violated under lease churn: sampled %d > declared bound %d", g, b)
	}

	if got := reg.ReapedLeases(); got != reaped.Load() {
		t.Fatalf("ReapedLeases = %d, want %d", got, reaped.Load())
	}
	if got := reg.RevokedReleases(); got != lateReleases.Load() {
		t.Fatalf("RevokedReleases = %d (zombie late releases not all counted as no-ops), want %d",
			got, lateReleases.Load())
	}

	// Zero stranded slots: every slot — reaped ones included — must be
	// acquirable again. Admission forces the missing rounds through the bound
	// scheme, so aging needs no manual round here.
	held := make([]*smr.Lease, 0, maxThreads)
	for len(held) < maxThreads {
		l, err := acquire()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, l)
	}
	if got := reg.Active().Count(); got != maxThreads {
		t.Fatalf("re-acquired all slots but active mask counts %d of %d", got, maxThreads)
	}
	// Drain under the first held lease, then release them all.
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	if scheme != "none" {
		if !sch.Quiesce(held[0].Tid()) {
			st = sch.Stats()
			t.Fatalf("drain left stranded records after holder kills: retired %d, freed %d (%d leaked)",
				st.Retired, st.Freed, st.Retired-st.Freed)
		}
		if reg.OrphanCount() != 0 {
			t.Fatalf("orphan list non-empty after drain: %d records", reg.OrphanCount())
		}
	}
	for _, l := range held {
		l.Release()
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}
