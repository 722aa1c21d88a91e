// Boundedmemory demonstrates the paper's E2 result at example scale: when a
// thread stalls in the middle of an operation, epoch-based schemes (DEBRA)
// accumulate garbage without bound, while NBR+ neutralizes the stalled
// thread and keeps unreclaimed memory bounded by its watermarks. It exits 1
// if a cell breaks its declared garbage bound.
//
// Run with: go run ./examples/boundedmemory
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"nbr/internal/bench"
	"nbr/internal/catalog"
)

func main() {
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 512
	for _, scheme := range []string{"debra", "nbr+"} {
		// Three workers churn inserts and deletes, retiring constantly, around
		// a villain that begins an operation and sleeps through the whole run
		// inside an open read phase (Stall); it is woken when the churn ends.
		r, err := bench.Run(bench.Workload{
			DS: "dgt", Scheme: scheme, Threads: 3, KeyRange: 5_000,
			InsPct: 50, DelPct: 50, Duration: time.Second,
			Stall: true, Cfg: cfg,
		})
		if err != nil {
			panic(err)
		}
		if r.StallNeutralized {
			fmt.Printf("%-6s stalled thread was neutralized on wake-up\n", scheme)
		}
		fmt.Printf("%-6s retired=%-8d unreclaimed=%-8d (%.0f%% of retired still resident)\n",
			scheme, r.Stats.Retired, r.Stats.Garbage(), 100*float64(r.Stats.Garbage())/float64(r.Stats.Retired))
		// DEBRA declares no bound, so only the NBR+ cell can break one.
		if v := r.Violations(); len(v) > 0 {
			fmt.Println(strings.Join(v, "\n"))
			os.Exit(1)
		}
	}
	fmt.Println("\nDEBRA cannot advance its epoch past the sleeping thread; NBR+ signals")
	fmt.Println("it, reclaims everything unreserved, and neutralizes it when it wakes.")
}
