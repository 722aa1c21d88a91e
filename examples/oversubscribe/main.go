// Oversubscribe demonstrates the paper's P4 (consistency) property: when
// the system runs many more threads than cores, schemes that depend on
// every thread making progress (epoch-based) suffer from delayed threads,
// while NBR+ keeps reclaiming by neutralizing laggards. The example drives
// the benchmark harness directly at 8× oversubscription and prints the
// throughput and garbage of each scheme side by side.
//
// It then takes neutralization one step further: oversubscription is where
// holders wedge — a goroutine starved of its core, stuck on a dead
// downstream call — and a wedged holder owns a lease slot forever. The
// second half arms the lease watchdog, wedges a holder on purpose, and
// proves the slot comes back: the watchdog revokes the lease by the same
// signal machinery that neutralizes laggards, the shared recovery path
// quiesces the slot, and a fresh holder takes it over. The example exits
// non-zero if the wedged holder is not reaped within 2× its deadline.
//
// Run with: go run ./examples/oversubscribe
package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"nbr"
	"nbr/internal/bench"
	"nbr/internal/catalog"
)

func main() {
	threads := 8 * runtime.GOMAXPROCS(0)
	fmt.Printf("DGT tree, 50%%i-50%%d, key range 100k, %d goroutines on %d core(s)\n\n",
		threads, runtime.GOMAXPROCS(0))
	fmt.Printf("%-8s %10s %12s %12s %12s\n", "scheme", "Mops/s", "garbage", "signals", "p99 lat")

	for _, scheme := range []string{"none", "debra", "hp", "nbr+"} {
		r, err := bench.Run(bench.Workload{
			DS:       "dgt",
			Scheme:   scheme,
			Threads:  threads,
			KeyRange: 100_000,
			InsPct:   50,
			DelPct:   50,
			Duration: 600 * time.Millisecond,
			Cfg:      catalog.DefaultSchemeConfig(),
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8s %10.3f %12d %12d %12v\n",
			scheme, r.Mops, r.Stats.Garbage(), r.Stats.Signals, r.LatP99)
	}
	fmt.Println("\ngarbage = retired records not yet returned to the allocator at exit;")
	fmt.Println("the leaky baseline never frees, the epoch schemes depend on laggards,")
	fmt.Println("NBR+ stays bounded because stalled readers are neutralized.")

	wedgedHolder()
}

// wedgedHolder is the crash-safety half: a holder that will never release,
// reaped by the lease watchdog. Exits non-zero if the reap does not land
// within 2× the deadline — the contract CI enforces.
func wedgedHolder() {
	const deadline = 50 * time.Millisecond
	fmt.Printf("\nwedged holder: LeaseTimeout %v, reap must land within %v\n", deadline, 2*deadline)

	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		Scheme: "nbr+", MaxThreads: 4, BagSize: 512, LeaseTimeout: deadline,
	})
	check(err)
	set, err := rt.NewSet("lazylist")
	check(err)

	// The wedge: acquire, do a little work, then stop forever — a handler
	// stuck on a dead downstream call. Its lease is deliberately leaked. Like
	// a real handler it arms its own deadline after its last operation, which
	// orders everything it wrote before the watchdog's recovery of the slot.
	l, err := rt.Acquire()
	check(err)
	for k := uint64(1); k <= 64; k++ {
		set.Insert(l, k)
	}
	wedgedAt := time.Now()
	l.SetDeadline(wedgedAt.Add(deadline))

	for rt.Snapshot(0).ReapedLeases == 0 {
		if time.Since(wedgedAt) > 2*deadline {
			fmt.Fprintf(os.Stderr, "oversubscribe: wedged holder NOT reaped within %v (reaps=0): the watchdog is broken\n", 2*deadline)
			os.Exit(1)
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Printf("reaped after %v: lease revoked, slot quiesced on the deadline timer's goroutine\n",
		time.Since(wedgedAt).Round(time.Millisecond))

	// The zombie wakes up late: its Release is a counted no-op, and the slot
	// is already on its way to a new holder.
	l.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = rt.With(ctx, func(fresh *nbr.Lease) error {
		fresh.SetDeadline(time.Time{}) // this holder is healthy; opt out
		if !set.Contains(fresh, 1) {
			return fmt.Errorf("recovered slot lost the wedged holder's writes")
		}
		return nil
	})
	check(err)
	check(rt.Drain())
	snap := rt.Snapshot(0)
	fmt.Printf("recovered: %d reap, %d zombie release (counted no-op), slot reusable, drained clean\n",
		snap.ReapedLeases, snap.RevokedReleases)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "oversubscribe: %v\n", err)
		os.Exit(1)
	}
}
