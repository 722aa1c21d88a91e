// Bad-usage companion to examples/quickstart: the same patterns with the
// protocol mistakes put back in. This file lives under testdata/ so the go
// tool never builds it; each marked line is what `go run ./cmd/nbrvet ./...`
// reports when the mistake appears in built code. See DESIGN.md §13.
package main

import (
	"sync"

	"nbr"
)

// stashed parks a lease for "later" — but later runs on whatever goroutine
// gets there first, with no claim to the lease's guard slot.
var stashed *nbr.Lease

func badMain() {
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{Scheme: "nbr+"})
	if err != nil {
		panic(err)
	}
	set, err := rt.NewSet("lazylist")
	if err != nil {
		panic(err)
	}

	lease, err := rt.Acquire()
	if err != nil {
		panic(err)
	}

	// nbrvet: "lease stored to a package-level variable escapes its
	// acquiring goroutine" (leaseescape)
	stashed = lease

	var wg sync.WaitGroup
	wg.Add(1)
	// nbrvet: "lease captured by a new goroutine: a lease is
	// goroutine-affine; acquire inside the goroutine instead" (leaseescape)
	go func() {
		defer wg.Done()
		set.Insert(lease, 2)
	}()
	wg.Wait()

	lease.Release()
	// nbrvet: "use of lease lease after Release: its guard slot may already
	// belong to another goroutine" (guardderef)
	set.Insert(lease, 4)
}
