// Quickstart: protect a concurrent ordered set with NBR+ in three steps,
// using only the public nbr package.
//
//  1. create a Runtime (reclamation scheme + thread-lease registry + arena)
//     and attach a data structure to it with NewSet;
//  2. each worker goroutine acquires a Lease — no hand-managed thread ids;
//  3. run operations on the set under the lease and release it — retired
//     records are reclaimed behind the scenes, with bounded garbage even if
//     a thread stalls, and a departing thread leaks nothing.
//
// A single-structure service needs nothing beyond this. A service hosting
// several structures calls NewSet once per structure on the same runtime,
// and one Lease covers all of them per request; see examples/server for
// that regime over real HTTP.
//
// What nbrvet would catch here: the protocol mistakes this example is
// careful not to make are all static findings — stashing the lease in a
// package variable or handing it to another goroutine (leaseescape; a lease
// is goroutine-affine), or touching it after Release (guardderef). See
// testdata/badusage.go for the flagged versions of this file's patterns,
// and DESIGN.md §13 for the full rule set.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"sync"

	"nbr"
)

func main() {
	const workers = 4

	// 1. The runtime, NBR+, and the lazy list it protects.
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "nbr+", BagSize: 512})
	if err != nil {
		panic(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		panic(err)
	}

	// 2+3. Each worker leases a thread slot and churns its own key stripe.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lease, err := rt.Acquire()
			if err != nil {
				panic(err)
			}
			defer lease.Release()
			for i := 0; i < 20_000; i++ {
				key := uint64(i*workers+w) % 1000 * 2 // even keys only
				if key == 0 {
					key = 2
				}
				set.Insert(lease, key)
				if i%3 == 0 {
					set.Delete(lease, key)
				}
			}
		}(w)
	}
	wg.Wait()

	probe, err := rt.Acquire()
	if err != nil {
		panic(err)
	}
	fmt.Printf("set size after churn: %d\n", set.Len())
	fmt.Printf("contains(2)=%v contains(3)=%v\n", set.Contains(probe, 2), set.Contains(probe, 3))
	probe.Release()

	if err := rt.Drain(); err != nil {
		panic(err)
	}
	st := rt.Stats()
	ms := set.MemStats()
	fmt.Printf("retired=%d freed=%d garbage=%d (declared bound: %d)\n",
		st.Retired, st.Freed, st.Garbage(), rt.GarbageBound())
	fmt.Printf("signals sent=%d, read-phase restarts=%d\n", st.Signals, st.Neutralized)
	fmt.Printf("live records=%d (%.1f KiB)\n", ms.Live, float64(ms.LiveBytes)/1024)

	if err := set.Validate(); err != nil {
		panic(err)
	}
	fmt.Println("structure validated: ok")
}
