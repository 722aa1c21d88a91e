package bench

import (
	"fmt"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/ds/hashmap"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// This file is the resize-burst cell: the measurement behind the segment
// retirement path. An insert-only storm on the resizable hash map makes the
// retire stream consist purely of whole bucket arrays — the workload
// RetireSegment exists for — each retired as one segment handle. The cell
// records counter ratios (stamps/record, scans/record), not timings, so it is
// host-independent: retiring every cell individually would pay one
// scheme-side stamp per cell, the floor of 1.0 per record, while the segment
// path pays one stamp per array.

// ResizeBurstWorkload configures one resize-burst run.
type ResizeBurstWorkload struct {
	Scheme  string
	Threads int
	// KeysPerThread is each thread's disjoint insert range; total inserts
	// drive the doubling cascade.
	KeysPerThread int
	Cfg           catalog.SchemeConfig
}

// ResizeBurstResult is the outcome of one run: the point the snapshot
// records plus the scheme's full tally, all counters read at the post-drain
// quiescent point.
type ResizeBurstResult struct {
	ResizeBurstPoint
	Stats smr.Stats
}

// RunResizeBurst executes one resize-burst cell.
func RunResizeBurst(w ResizeBurstWorkload) (ResizeBurstResult, error) {
	m := hashmap.NewWith(mem.Config{MaxThreads: w.Threads})
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

	// Fixed-N threads never leave the membership, so every one of them
	// drains: a grace period needs each to pass a quiescent state, and an
	// NBR reservation row clears only in its own thread's pass.
	tids := make([]int, w.Threads)
	for tid := range tids {
		tids[tid] = tid
	}
	drained := sch.Quiesce(tids...)

	st := sch.Stats()
	res := ResizeBurstResult{Stats: st, ResizeBurstPoint: ResizeBurstPoint{
		Scheme: w.Scheme, Mode: "segment", Threads: w.Threads,
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
