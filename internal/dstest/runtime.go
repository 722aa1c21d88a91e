package dstest

import (
	"context"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr"
	"nbr/internal/catalog"
)

// dumpRuntime is the dump-on-violation hook for the public-runtime suite:
// the same tail dstest's scheme-level dumpRecorder prints, read through the
// runtime's Debug surface.
func dumpRuntime(t *testing.T, rt *nbr.Runtime) {
	t.Helper()
	var sb strings.Builder
	rt.DumpRecorder(&sb, 128)
	if sb.Len() == 0 {
		return
	}
	t.Logf("%s", sb.String())
	_ = os.WriteFile(dumpFile, []byte(sb.String()), 0o644)
}

// RuntimeChurn is the multi-structure lease-churn stress for the shared
// reclamation runtime (the public nbr.Runtime): one registry, one arena
// hub, one scheme instance, four structures (the resizable hash map among
// them, so segment retirement runs through the shared hub). More worker
// goroutines than
// slots acquire a single lease each through AcquireCtx (blocking admission,
// not spin-retry), churn all the sets under it — so each per-thread bag
// holds a mix of every structure's retired records — and release, recycling
// slots mid-traffic. Meanwhile a sampler holds the aggregated live
// GarbageBound contract (declared once per runtime, covering all attached
// structures), and lease admission must never fall back to the unaged
// oldest-slot reuse: the runtime forces the missing scan rounds instead.
// At the end the runtime drains to Retired == Freed across every structure
// and each structure validates.
func RuntimeChurn(t *testing.T, scheme string) {
	const (
		maxThreads = 8
		workers    = 12 // > maxThreads: admission queues and slots recycle
		sessionOps = 60
	)
	sessions := 30
	if testing.Short() {
		sessions = 8
	}
	structures := []string{"lazylist", "harris", "dgt", "hashmap"}

	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		Scheme:     scheme,
		MaxThreads: maxThreads,
		// The single-structure suites' bag size, the one stress knob a
		// Runtime takes; every other knob runs at its scheme's default, as
		// in a service.
		BagSize: catalog.StressSchemeConfig().BagSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The suite runs observed: the one-branch recorder cost is irrelevant at
	// test scale, and any bound or drain failure below dumps a timeline that
	// names the thread that was holding garbage instead of a bare counter.
	rt.Observe(true)
	sets := make([]*nbr.Set, 0, len(structures))
	for _, name := range structures {
		s, err := rt.NewSet(name)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}

	// owners tracks concurrent lease holders per tid: two at once is the
	// recycled-tid aliasing the quarantine exists to prevent.
	var owners [maxThreads]atomic.Int32

	stopWatch := watchBound(func() uint64 { return rt.Stats().Garbage() }, rt.GarbageBound)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seed := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int((seed >> 33) % uint64(n))
			}
			for s := 0; s < sessions; s++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				l, err := rt.AcquireCtx(ctx)
				cancel()
				if err != nil {
					t.Errorf("worker %d session %d: %v", w, s, err)
					return
				}
				tid := l.Tid()
				if owners[tid].Add(1) != 1 {
					t.Errorf("tid %d leased to two goroutines at once (recycled-slot aliasing)", tid)
					owners[tid].Add(-1)
					l.Release()
					return
				}
				for i := 0; i < sessionOps; i++ {
					set := sets[next(len(sets))]
					key := uint64(next(48)) + 1
					if next(3) == 0 {
						set.Insert(l, key)
					} else {
						set.Delete(l, key) // delete-heavy: retire traffic
					}
				}
				owners[tid].Add(-1)
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if g, b, violated := stopWatch(); violated {
		dumpRuntime(t, rt)
		t.Fatalf("aggregated garbage-bound contract violated under multi-structure churn: sampled %d > declared bound %d", g, b)
	}
	st := rt.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	// Reclamation must have run under the traffic, not only in the final
	// drain: at the default cadence a scheme that never reclaimed mid-run
	// would still drain clean and pass everything below.
	t.Logf("%s before drain: retired %d, freed %d, scans %d", scheme, st.Retired, st.Freed, st.Scans)
	if scheme != "none" && st.Freed == 0 {
		dumpRuntime(t, rt)
		t.Fatalf("no record freed under traffic (retired %d, %d scans): the churn did not exercise reclamation", st.Retired, st.Scans)
	}
	if err := rt.Drain(); err != nil {
		dumpRuntime(t, rt)
		t.Fatal(err)
	}
	if st = rt.Stats(); scheme != "none" && st.Retired != st.Freed {
		dumpRuntime(t, rt)
		t.Fatalf("drain left orphaned records across the shared bags: retired %d, freed %d (%d leaked)",
			st.Retired, st.Freed, st.Retired-st.Freed)
	}
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s after multi-structure churn: %v", s.Name(), err)
		}
	}
}
