// Boundedmemory demonstrates the paper's E2 result at example scale: when a
// thread stalls in the middle of an operation, epoch-based schemes (DEBRA)
// accumulate garbage without bound, while NBR+ neutralizes the stalled
// thread and keeps unreclaimed memory bounded by its watermarks.
//
// Run with: go run ./examples/boundedmemory
package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nbr/internal/catalog"
	"nbr/internal/sigsim"
)

func main() {
	for _, scheme := range []string{"debra", "nbr+"} {
		garbage, retired := runWithStalledThread(scheme)
		fmt.Printf("%-6s retired=%-8d unreclaimed=%-8d (%.0f%% of retired still resident)\n",
			scheme, retired, garbage, 100*float64(garbage)/float64(retired))
	}
	fmt.Println("\nDEBRA cannot advance its epoch past the sleeping thread; NBR+ signals")
	fmt.Println("it, reclaims everything unreserved, and neutralizes it when it wakes.")
}

// runWithStalledThread churns inserts/deletes around one thread that parks
// inside an open read phase, then wakes it to show the neutralization.
//
//nbr:allow readphase — the open read phase held across worker churn is the demo's whole point; the main goroutine coordinating it never runs under a guard that could be neutralized
func runWithStalledThread(scheme string) (garbage, retired uint64) {
	const workers = 3
	threads := workers + 1
	inst, err := catalog.NewDS("dgt", threads)
	if err != nil {
		panic(err)
	}
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 512
	sch, err := catalog.NewScheme(scheme, inst.Arena, threads, cfg)
	if err != nil {
		panic(err)
	}

	// The villain: begins an operation, then goes to sleep forever.
	stalled := sch.Guard(workers)
	stalled.BeginOp()
	stalled.BeginRead()

	// The workers: churn inserts and deletes, retiring constantly.
	var stop atomic.Bool
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			rng := uint64(tid + 1)
			for i := 0; i < 60_000 && !stop.Load(); i++ {
				// splitmix64: low bits of a bare LCG correlate with the key.
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				z ^= z >> 31
				key := z%5_000 + 1
				if (z>>40)&1 == 0 {
					inst.Set.Insert(g, key)
				} else {
					inst.Set.Delete(g, key)
				}
			}
		}(tid)
	}
	wg.Wait()
	stop.Store(true)

	// Wake the sleeper; under NBR+ it gets neutralized (and would restart
	// its operation), under DEBRA it resumes as if nothing happened.
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(sigsim.Neutralized); !ok {
					panic(r)
				}
				fmt.Printf("%-6s stalled thread was neutralized on wake-up\n", scheme)
			}
		}()
		stalled.EndRead()
	}()
	stalled.EndOp()

	st := sch.Stats()
	return st.Garbage(), st.Retired
}
