package bench

import (
	"fmt"
	"slices"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/ds/hashmap"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file is the resize-burst cell: the A/B measurement behind the segment
// retirement fast path. An insert-only storm on the resizable hash map makes
// the retire stream consist purely of whole bucket arrays — the workload
// RetireSegment exists for — and the same storm runs twice, once with arrays
// retired as one segment handle and once with the old array dissolved and
// every cell retired individually. The comparison is counter ratios
// (stamps/record, scans/record), not timings, so it is host-independent: on
// any machine the per-node mode pays one scheme-side stamp per cell and a
// scan cadence proportional to cells, while the segment mode pays one stamp
// per array.

// ResizeBurstWorkload configures one resize-burst run.
type ResizeBurstWorkload struct {
	// Scheme names the reclamation scheme. Per-node mode is only safe under
	// the grace-period schemes (an interval scheme sees batch-carved cells as
	// born at era 0, which is conservative; an epoch scheme needs no per-cell
	// announcements); RunResizeBurst rejects per-node runs under hp and the
	// NBR family, whose per-record protection the mode deliberately skips.
	Scheme  string
	Threads int
	// KeysPerThread is each thread's disjoint insert range; total inserts
	// drive the doubling cascade.
	KeysPerThread int
	// PerNode selects the dissolve-and-retire-individually baseline.
	PerNode bool
	Cfg     catalog.SchemeConfig
}

// ResizeBurstResult is the outcome of one run: the point the snapshot
// records plus the scheme's full tally, all counters read at the post-drain
// quiescent point.
type ResizeBurstResult struct {
	ResizeBurstPoint
	Stats smr.Stats
}

// perNodeSafe lists the schemes the dissolve baseline may run under.
var perNodeSafe = []string{"ibr", "he", "qsbr", "rcu", "debra", "none"}

// RunResizeBurst executes one resize-burst cell.
func RunResizeBurst(w ResizeBurstWorkload) (ResizeBurstResult, error) {
	if w.PerNode && !slices.Contains(perNodeSafe, w.Scheme) {
		return ResizeBurstResult{}, fmt.Errorf(
			"bench: per-node resize baseline is unsafe under %s (no per-cell protection)", w.Scheme)
	}
	newMap, mode := hashmap.NewWith, "segment"
	if w.PerNode {
		newMap, mode = hashmap.NewPerNodeWith, "per-node"
	}
	m := newMap(mem.Config{MaxThreads: w.Threads})
	sch, err := catalog.NewSchemeFor(w.Scheme, m.Arena(), w.Threads, w.Cfg, m.Requirements())
	if err != nil {
		return ResizeBurstResult{}, err
	}

	garbagePeak := watchGarbage(time.Millisecond, func() uint64 { return sch.Stats().Garbage() })
	start := time.Now()
	parallel(w.Threads, func(tid int) {
		g := sch.Guard(tid)
		base := uint64(tid) * 1_000_000
		for i := 0; i < w.KeysPerThread; i++ {
			m.Insert(g, base+uint64(i)+1)
		}
	})
	elapsed := time.Since(start)
	peak := garbagePeak()

	drained := drainQuiet(sch, w.Threads)

	st := sch.Stats()
	res := ResizeBurstResult{Stats: st, ResizeBurstPoint: ResizeBurstPoint{
		Scheme: w.Scheme, Mode: mode, Threads: w.Threads,
		Keys: uint64(w.Threads * w.KeysPerThread), Resizes: m.Resizes(),
		Retired: st.Retired, SegmentsRetired: st.Segments, SegRecords: st.SegRecords, Scans: st.Scans,
		StampsPerRecord: st.StampsPerRecord(), ScansPerRecord: st.ScansPerRecord(),
		BoundContract: BoundContract{Bound: sch.GarbageBound(), GarbagePeak: peak},
		Drained:       drained,
	}}
	res.Mops = float64(res.Keys) / elapsed.Seconds() / 1e6
	if err := m.Validate(); err != nil {
		return res, fmt.Errorf("bench: hash map invalid after resize burst: %w", err)
	}
	return res, nil
}
