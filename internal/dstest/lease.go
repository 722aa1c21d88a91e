package dstest

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/smr"
)

// Lease is the dynamic-membership stress: more worker goroutines than
// registry slots acquire a lease, run a burst of operations, release, and
// loop — so slots are constantly recycled mid-traffic, departing threads
// orphan mid-protocol bags, and reclaimers adopt them, all under the live
// GarbageBound contract. At the end a drain pass must reach
// Retired == Freed: a departing thread that leaked records fails here, and
// two concurrently held leases sharing a tid (recycled-slot aliasing) fails
// immediately.
func Lease(t *testing.T, f Factory, scheme string) {
	const (
		maxThreads = 8
		workers    = 12 // > maxThreads: acquires contend and recycle slots
		sessionOps = 60
	)
	sessions := 40
	if testing.Short() {
		sessions = 8
	}

	inst := f.New(maxThreads)
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, maxThreads, config(), inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	reg := smr.NewRegistry(maxThreads)
	catalog.BindLeases(reg, sch, inst.Arena)

	// owners tracks concurrent lease holders per tid: two at once is the
	// recycled-tid aliasing the quarantine exists to prevent.
	var owners [maxThreads]atomic.Int32

	stopWatch := watchBound(func() uint64 { return sch.Stats().Garbage() }, sch.GarbageBound)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*2654435761 + 17))
			for s := 0; s < sessions; s++ {
				l, err := reg.Acquire()
				if errors.Is(err, smr.ErrRegistryFull) {
					runtime.Gosched()
					s-- // a failed acquire is not a session
					continue
				}
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
				g := sch.Guard(tid)
				for i := 0; i < sessionOps; i++ {
					key := uint64(rng.Intn(48)) + 1
					switch rng.Intn(3) {
					case 0:
						inst.Set.Insert(g, key)
					default:
						inst.Set.Delete(g, key) // delete-heavy: retire traffic
					}
				}
				owners[tid].Add(-1)
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if g, b, violated := stopWatch(); violated {
		t.Fatalf("garbage-bound contract violated under lease churn: sampled %d > declared bound %d", g, b)
	}

	// Drain: every record a departed thread retired must be reclaimable at
	// quiescence — zero orphaned records leaked. The leaky scheme never
	// frees, so only the accounting checks apply to it.
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	if scheme != "none" {
		l, err := reg.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		smr.DrainQuiet(sch, l.Tid())
		l.Release()
		if st = sch.Stats(); st.Retired != st.Freed {
			t.Fatalf("drain left orphaned records: retired %d, freed %d (%d leaked)",
				st.Retired, st.Freed, st.Retired-st.Freed)
		}
		if reg.OrphanCount() != 0 {
			t.Fatalf("orphan list non-empty after drain: %d records", reg.OrphanCount())
		}
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}
