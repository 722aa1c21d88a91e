package nbr_test

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"nbr"
)

// TestDomainLifecycle exercises the public API end to end for every
// structure × scheme cell the applicability matrix admits, one structure per
// runtime: lease churn with more goroutines than slots, operations under
// leases, drain to Retired == Freed, and validation.
func TestDomainLifecycle(t *testing.T) {
	for _, structure := range []string{"lazylist", "harris", "dgt"} {
		for _, scheme := range []string{"nbr+", "nbr", "hp", "debra"} {
			t.Run(structure+"/"+scheme, func(t *testing.T) {
				rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
					Scheme:     scheme,
					MaxThreads: 6,
					BagSize:    128,
				})
				if err != nil {
					t.Fatal(err)
				}
				set, err := rt.NewSet(structure)
				if err != nil {
					if scheme == "hp" { // Table 1 rejects some HP cells
						t.Skip(err)
					}
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < 10; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for s := 0; s < 6; s++ {
							l, err := rt.Acquire()
							if errors.Is(err, nbr.ErrNoLease) {
								runtime.Gosched()
								s--
								continue
							}
							if err != nil {
								t.Error(err)
								return
							}
							for i := 0; i < 50; i++ {
								key := uint64(w*50+i)%96 + 1
								set.Insert(l, key)
								if i%2 == 0 {
									set.Delete(l, key)
								}
							}
							l.Release()
						}
					}(w)
				}
				wg.Wait()
				if err := rt.Drain(); err != nil {
					t.Fatal(err)
				}
				st := rt.Stats()
				if scheme != "none" && st.Retired != st.Freed {
					t.Fatalf("leaked records: retired %d != freed %d", st.Retired, st.Freed)
				}
				if b := rt.GarbageBound(); b != nbr.Unbounded && st.Garbage() > uint64(b) {
					t.Fatalf("garbage %d exceeds declared bound %d", st.Garbage(), b)
				}
				if err := set.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDomainLeaseExhaustion pins the full-registry behaviour: MaxThreads
// concurrent holders, the next Acquire fails with ErrNoLease, and a release
// makes a slot available again.
func TestDomainLeaseExhaustion(t *testing.T) {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	leases := make([]*nbr.Lease, 0, 8)
	for i := 0; i < 8; i++ {
		l, err := rt.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	if _, err := rt.Acquire(); !errors.Is(err, nbr.ErrNoLease) {
		t.Fatalf("9th acquire: got %v, want ErrNoLease", err)
	}
	leases[3].Release()
	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	for _, l := range leases[:3] {
		l.Release()
	}
	for _, l := range leases[4:] {
		l.Release()
	}
}

// TestLeaseRoundTripAllocs: an Acquire+Release round trip allocates the
// public Lease and the registry's smr.Lease and nothing else, however many
// leases churn through the quarantine queue: a pop that gave up the queue's
// capacity would make a later release's append reallocate it.
func TestLeaseRoundTripAllocs(t *testing.T) {
	const slots, trips, perTrip = 12, 10_000, 2
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{MaxThreads: slots})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}
	trip := func() {
		l, err := rt.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	}
	// Warm up: every slot through the quarantine, every lazily built
	// scratch built.
	for range 4 * slots {
		trip()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range trips {
		trip()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > perTrip*trips {
		t.Fatalf("%d round trips allocated %d times (%.4f each), want at most %d each",
			trips, got, float64(got)/trips, perTrip)
	}
}
