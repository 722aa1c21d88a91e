package smr

import (
	"slices"

	"nbr/internal/mem"
	"nbr/internal/sigsim"
)

// ScanSet is the reclaim-path membership set shared by every scheme that
// scans announcement slots (NBR reservations, hazard pointers). The obvious
// implementation — rebuild a map[Ptr]struct{} per scan — allocates buckets
// and hashes every entry on the hottest path in the repo. A scan only ever
// holds N·R small integers, so a flat slice collected in one pass and sorted
// once beats the map on every axis: zero allocations after warm-up, no
// hashing, and binary-search membership over a cache-resident array.
//
// A ScanSet is single-threaded scratch owned by one guard and reused across
// scans; CollectRows snapshots the slots with the same atomic loads the map
// version performed.
type ScanSet struct {
	vals []uint64
}

// NewScanSet returns a set pre-sized for capacity entries, so that steady
// state scans never grow the backing array.
func NewScanSet(capacity int) ScanSet {
	return ScanSet{vals: make([]uint64, 0, capacity)}
}

// CollectRows snapshots the announcement rows of every *active* thread —
// slots is the flat N·width array, row tid at [tid·width, (tid+1)·width) —
// and sorts the result, replacing the set's previous contents. Scan cost is
// proportional to live threads. Skipping an inactive row is safe because a
// thread is only inactive while outside operations (no live announcements),
// and a thread that activates after this snapshot cannot reach records that
// were unlinked before it activated.
func (s *ScanSet) CollectRows(slots []Pad64, width int, active *sigsim.ActiveSet) {
	s.vals = s.vals[:0]
	active.Range(func(tid int) {
		row := slots[tid*width : (tid+1)*width]
		for i := range row {
			if v := row[i].Load(); v != 0 {
				s.vals = append(s.vals, v)
			}
		}
	})
	slices.Sort(s.vals)
}

// Contains reports whether p was announced when CollectRows snapshotted the
// slots: the identity-based schemes' keep test.
func (s *ScanSet) Contains(p mem.Ptr) bool {
	_, ok := slices.BinarySearch(s.vals, uint64(p))
	return ok
}
