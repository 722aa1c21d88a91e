// Command nbrstress runs the full data-structure × scheme matrix under
// continuous churn with aggressive reclamation settings. The allocator's
// generation tags turn any unsafe reclamation into a panic, so a clean exit
// is a machine-checked safety run of every combination the applicability
// matrix admits. It exits non-zero on the first violation.
//
// Usage: nbrstress [-seconds 2] [-threads 8] [-keys 64]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nbr/internal/catalog"
)

func main() {
	var (
		seconds = flag.Float64("seconds", 1.0, "churn time per combination")
		threads = flag.Int("threads", 8, "goroutines per combination")
		keys    = flag.Uint64("keys", 64, "key range (small = maximal recycling pressure)")
	)
	flag.Parse()

	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 128 // reclaim constantly
	cfg.Threshold = 48
	cfg.EraFreq = 16
	cfg.ScanFreq = 4

	failures := 0
	for _, dsName := range catalog.DSNames {
		for _, scheme := range catalog.SchemeNames {
			if !catalog.Runnable(dsName, scheme) {
				continue
			}
			if err := stress(dsName, scheme, *threads, *keys, *seconds, cfg); err != nil {
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

func stress(dsName, scheme string, threads int, keys uint64, seconds float64, cfg catalog.SchemeConfig) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	inst, err := catalog.NewDS(dsName, threads)
	if err != nil {
		return err
	}
	// Build the scheme at the structure's declared widths, exactly like the
	// benchmarks do — the stress matrix must cover the narrow configuration
	// the measurements actually run.
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, threads, cfg, inst.Req)
	if err != nil {
		return err
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	panics := make(chan any, threads)
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics <- r
					stop.Store(true)
				}
			}()
			g := sch.Guard(tid)
			rng := uint64(tid)*0x9e3779b97f4a7c15 + 1
			for !stop.Load() {
				rng = rng*6364136223846793005 + 1442695040888963407
				key := rng%keys + 1
				switch (rng >> 33) % 3 {
				case 0:
					inst.Set.Insert(g, key)
				case 1:
					inst.Set.Delete(g, key)
				default:
					inst.Set.Contains(g, key)
				}
			}
		}(tid)
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	select {
	case r := <-panics:
		return fmt.Errorf("worker panic: %v", r)
	default:
	}
	if err := inst.Set.Validate(); err != nil {
		return err
	}
	st := sch.Stats()
	if st.Freed > st.Retired {
		return fmt.Errorf("freed %d > retired %d", st.Freed, st.Retired)
	}
	return nil
}
