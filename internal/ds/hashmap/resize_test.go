package hashmap

import (
	"testing"

	"nbr/internal/core"
	"nbr/internal/mem"
	"nbr/internal/smr"
	"nbr/internal/smr/era"
	"nbr/internal/smr/hp"
)

// TestMidResizeReader is the deterministic segment-safety regression: a
// reader pins a bucket array with ONE announcement on its segment handle,
// the array is retired out from under it by a resize, a delete storm then
// forces scan after scan — and every member cell must stay valid until the
// reader leaves, at which point the drain must reclaim the array in full.
// Hazard pointers make the schedule deterministic: hazards pin exactly what
// is announced, so the one handle hazard is the only thing keeping the K
// cells alive.
//
//nbr:allow readphase — the stalled reader IS the fixture: the test parks inside an open read phase on purpose, drives the writer and the assertions around it from the same goroutine, and only then closes the phase; nothing here is a library traversal the protocol could restart
func TestMidResizeReader(t *testing.T) {
	m := NewWith(mem.Config{MaxThreads: 2})
	sch := hp.New(m.Pool, 2, hp.Config{Slots: 4, Threshold: 16})
	w, r := sch.Guard(0), sch.Guard(1)

	old := m.tab.Load()

	// The reader opens a read phase and pins the current array through its
	// segment handle — the map's own traversal protocol (slot 3), with the
	// protect-then-validate step that makes the hazard sound: the table
	// pointer still naming tab proves the handle was not yet retired when
	// the hazard was published.
	r.BeginOp()
	r.BeginRead()
	r.Protect(3, old.seg)
	if m.tab.Load() != old {
		t.Fatal("table swapped before any insert; fixture broken")
	}

	// The writer inserts until a resize retires old.seg under the reader.
	k := uint64(0)
	for m.Resizes() == 0 {
		k++
		if k > 1000 {
			t.Fatal("1000 inserts without a resize")
		}
		if !m.Insert(w, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if m.tab.Load() == old {
		t.Fatal("resize recorded but the old table is still installed")
	}
	st := sch.Stats()
	if st.Segments == 0 || st.SegRecords < uint64(old.run.Len()) {
		t.Fatalf("resize did not retire the old array as a segment: Segments=%d SegRecords=%d",
			st.Segments, st.SegRecords)
	}

	// Count-neutral churn: every pair retires nodes and, at threshold 16,
	// forces scan upon scan that all see the reader's handle hazard.
	for i := 0; i < 200; i++ {
		key := 10_000 + uint64(i)
		if !m.Insert(w, key) || !m.Delete(w, key) {
			t.Fatalf("churn pair %d failed", i)
		}
	}

	// One hazard, K survivors: the retired array's handle and every member
	// cell must still be valid — freeing any of them while the reader can
	// still dereference the old table would be the use-after-free the
	// segment protocol exists to prevent.
	if !m.Pool.Valid(old.seg) {
		t.Fatal("segment handle freed while a reader hazard names it")
	}
	for i := 0; i < old.run.Len(); i++ {
		if !m.Pool.Valid(old.run.At(i)) {
			t.Fatalf("cell %d freed under the reader (handle hazard must pin all members)", i)
		}
	}

	// The reader now traverses the stale array exactly as a mid-resize
	// traversal would: every cell must read cleanly, and every initialized
	// cell must still point at a live dummy (dummies are never retired).
	rb := smr.BarrierOf(r)
	for b := uint64(0); b <= old.mask; b++ {
		dp, ok := m.loadCell(&rb, 0, old, b)
		if !ok {
			t.Fatalf("cell %d of the pinned array failed validation", b)
		}
		if dp == mem.Null {
			continue
		}
		n, live := m.Pool.Get(dp)
		if !live {
			t.Fatalf("cell %d points at a freed dummy", b)
		}
		if sk := n.Key; sk&1 != 0 {
			t.Fatalf("cell %d points at a data node (skey %#x)", b, sk)
		}
	}
	if dp, _ := m.loadCell(&rb, 0, old, 0); dp != m.Head {
		t.Fatal("old cell 0 must still be the list head")
	}

	// The reader leaves; its hazards clear, and the drain must now fan the
	// whole array out: Retired == Freed exactly, no stranded members, no
	// early frees to compensate for.
	r.EndRead()
	r.EndOp()
	if !sch.Quiesce(0, 1) {
		st = sch.Stats()
		t.Fatalf("drain after reader exit stalled: retired %d, freed %d", st.Retired, st.Freed)
	}
	for i := 0; i < old.run.Len(); i++ {
		if m.Pool.Valid(old.run.At(i)) {
			t.Fatalf("cell %d of the retired array survived the drain", i)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedSegmentReader is the one-segment-rule regression for the
// schemes whose readers announce before a scan: the retired array's weight
// EXCEEDS the scan threshold, and the handle must still land as exactly one
// bag entry (Segments +1, no pieces) and every cell must survive the scan
// storm until the reader leaves. Under hp a piece split off the run would
// ride a fresh head handle that no reader ever announced, so its cells
// would be freed under the reader's single handle hazard — use-after-free.
// he and ibr announce eras, not handles, and run the same protocol: the
// handle's lifetime covers the reader's era, so the sweep pins it whole.
//
//nbr:allow readphase — the stalled reader IS the fixture: the test parks inside an open read phase on purpose and drives the writer around it from the same goroutine
func TestOversizedSegmentReader(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme func(mem.Arena) smr.Scheme
	}{
		{"hp", func(a mem.Arena) smr.Scheme { return hp.New(a, 2, hp.Config{Slots: 4, Threshold: 16}) }},
		{"he", func(a mem.Arena) smr.Scheme { return era.NewHE(a, 2, era.Config{Slots: 4, Threshold: 16}) }},
		{"ibr", func(a mem.Arena) smr.Scheme { return era.NewIBR(a, 2, era.Config{Threshold: 16}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewWith(mem.Config{MaxThreads: 2})
			sch := tc.scheme(m.Pool)
			w, r := sch.Guard(0), sch.Guard(1)

			// Grow the table past the threshold: after two resizes the
			// installed array has 32 cells > Threshold 16, so retiring it
			// lands one append past the trigger.
			k := uint64(0)
			for m.Resizes() < 2 {
				k++
				if k > 10_000 {
					t.Fatal("10k inserts without two resizes")
				}
				m.Insert(w, k)
			}
			old := m.tab.Load()
			if old.run.Len() <= 16 {
				t.Fatalf("fixture: pinned array weighs %d, need > Threshold 16", old.run.Len())
			}

			r.BeginOp()
			r.BeginRead()
			r.Protect(3, old.seg)
			if m.tab.Load() != old {
				t.Fatal("table swapped between load and hazard; fixture broken")
			}

			seg0 := sch.Stats()
			for m.Resizes() < 3 {
				k++
				if k > 100_000 {
					t.Fatal("100k inserts without the third resize")
				}
				m.Insert(w, k)
			}
			st := sch.Stats()
			if got := st.Segments - seg0.Segments; got != 1 {
				t.Fatalf("oversized array must land as ONE uncarved handle, got %d pieces", got)
			}
			if got := st.SegRecords - seg0.SegRecords; got != uint64(old.run.Len()) {
				t.Fatalf("segment records: got %d, want %d", got, old.run.Len())
			}

			// Scan storm: the bag is pinned over threshold by the 32-weight
			// survivor, so every churn pair forces scans that all see the
			// reader's announcement and must skip the whole run.
			for i := 0; i < 200; i++ {
				key := uint64(1)<<40 + uint64(i) // well away from the fixture keys
				if !m.Insert(w, key) || !m.Delete(w, key) {
					t.Fatalf("churn pair %d failed", i)
				}
			}
			if !m.Pool.Valid(old.seg) {
				t.Fatal("segment handle freed while a reader announcement covers it")
			}
			for i := 0; i < old.run.Len(); i++ {
				if !m.Pool.Valid(old.run.At(i)) {
					t.Fatalf("cell %d freed under the reader (a piece under another name?)", i)
				}
			}

			r.EndRead()
			r.EndOp()
			if !sch.Quiesce(0, 1) {
				st = sch.Stats()
				t.Fatalf("drain after reader exit stalled: retired %d, freed %d", st.Retired, st.Freed)
			}
			for i := 0; i < old.run.Len(); i++ {
				if m.Pool.Valid(old.run.At(i)) {
					t.Fatalf("cell %d of the retired array survived the drain", i)
				}
			}
		})
	}
}

// TestOversizedSegmentReaderNBR is the same carve-safety regression for
// reservation identity: a write-phase peer holds the array's segment handle
// reserved from its last endΦread (the map's real protocol), the array —
// heavier than the whole limbo bag — is retired under it, and reclamation
// after reclamation must skip every member cell because the reservation
// names the original handle. The old carve path freed the carved prefix's
// cells out from under exactly this reservation.
func TestOversizedSegmentReaderNBR(t *testing.T) {
	m := NewWith(mem.Config{MaxThreads: 2})
	sch := core.New(m.Pool, 2, core.Config{BagSize: 16, Slots: 4})
	w, r := sch.Guard(0), sch.Guard(1)

	k := uint64(0)
	for m.Resizes() < 2 {
		k++
		if k > 10_000 {
			t.Fatal("10k inserts without two resizes")
		}
		m.Insert(w, k)
	}
	old := m.tab.Load()
	if old.run.Len() <= 16 {
		t.Fatalf("fixture: pinned array weighs %d, need > BagSize 16", old.run.Len())
	}

	// The reader pins the array the way the map's write phases do: reserve
	// the handle at endΦread and keep the reservation open (no BeginRead
	// clears the row until the reader moves on). Having closed its read
	// phase, the reader is not restartable, so the writer's neutralization
	// signals are ignored and the schedule is deterministic.
	r.BeginOp()
	r.BeginRead()
	r.Protect(3, old.seg)
	if m.tab.Load() != old {
		t.Fatal("table swapped between load and reserve; fixture broken")
	}
	r.Reserve(2, old.seg)
	r.EndRead()

	seg0 := sch.Stats()
	for m.Resizes() < 3 {
		k++
		if k > 100_000 {
			t.Fatal("100k inserts without the third resize")
		}
		m.Insert(w, k)
	}
	st := sch.Stats()
	if got := st.Segments - seg0.Segments; got != 1 {
		t.Fatalf("oversized array must land as ONE uncarved handle, got %d pieces", got)
	}
	if got := st.SegRecords - seg0.SegRecords; got != uint64(old.run.Len()) {
		t.Fatalf("segment records: got %d, want %d", got, old.run.Len())
	}

	// Reclamation storm: the 32-weight survivor pins the bag over the
	// HiWatermark, so every retire runs a full signal-and-scan pass that
	// must skip the reserved handle and all its members.
	for i := 0; i < 200; i++ {
		key := uint64(1)<<40 + uint64(i)
		if !m.Insert(w, key) || !m.Delete(w, key) {
			t.Fatalf("churn pair %d failed", i)
		}
	}
	if !m.Pool.Valid(old.seg) {
		t.Fatal("segment handle freed while a peer reservation names it")
	}
	for i := 0; i < old.run.Len(); i++ {
		if !m.Pool.Valid(old.run.At(i)) {
			t.Fatalf("cell %d freed under the reservation (carving a reserved handle?)", i)
		}
	}

	// Both threads move on: the next read phase wipes each reservation row
	// (unlike hp hazards, NBR reservations persist past EndOp — the writer's
	// last endΦread still pins its final churn pair), and the drain must
	// then reclaim the array in full.
	r.BeginRead()
	r.EndRead()
	r.EndOp()
	w.BeginRead()
	w.EndRead()
	if !sch.Quiesce(0, 1) {
		st = sch.Stats()
		t.Fatalf("drain after reader exit stalled: retired %d, freed %d", st.Retired, st.Freed)
	}
	for i := 0; i < old.run.Len(); i++ {
		if m.Pool.Valid(old.run.At(i)) {
			t.Fatalf("cell %d of the retired array survived the drain", i)
		}
	}
}
