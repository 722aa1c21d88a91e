// Command nbrstress runs the full data-structure × scheme matrix under
// continuous churn with aggressive reclamation settings
// (catalog.StressSchemeConfig, the correctness suites' own). The allocator's
// generation tags turn any unsafe reclamation into a panic, and every
// bench.Run ends by validating the structure and the retired/freed
// accounting, so a clean exit is a machine-checked safety run of every
// combination the applicability matrix admits. It exits non-zero on a
// violation.
//
// Usage: nbrstress [-seconds 2] [-threads 8] [-keys 64]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"nbr/internal/bench"
	"nbr/internal/catalog"
)

func main() {
	var (
		seconds = flag.Float64("seconds", 1.0, "churn time per combination")
		threads = flag.Int("threads", 8, "goroutines per combination")
		keys    = flag.Uint64("keys", 64, "key range (small = maximal recycling pressure)")
	)
	flag.Parse()

	cfg := catalog.StressSchemeConfig()
	failures := 0
	for _, dsName := range catalog.DSNames {
		for _, scheme := range catalog.SchemeNames {
			if !catalog.Runnable(dsName, scheme) {
				continue
			}
			// A third each of inserts, deletes and searches over a tiny range.
			_, err := bench.Run(bench.Workload{
				DS: dsName, Scheme: scheme, Threads: *threads, KeyRange: *keys,
				InsPct: 33, DelPct: 33, Cfg: cfg,
				Duration: time.Duration(*seconds * float64(time.Second)),
			})
			if err != nil {
				fmt.Printf("FAIL  %-18s %-6s %v\n", dsName, scheme, err)
				failures++
			} else {
				fmt.Printf("ok    %-18s %-6s\n", dsName, scheme)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("%d combination(s) failed\n", failures)
		os.Exit(1)
	}
	fmt.Println("all combinations safe")
}
