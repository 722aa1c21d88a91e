package bench

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// TestSchemeSeams pins which seams every scheme implements. Every scheme is
// a full registry Member through the embedded kernel; Registry.Bind
// discovers SlotRevoker by type assertion and the harnesses Recordable, so a
// signal-capable scheme losing either to an embedding slip would go
// unnoticed.
func TestSchemeSeams(t *testing.T) {
	every := []string{"Member", "Drainer"}
	signalling := append([]string{"SlotRevoker", "Recordable"}, every...)
	want := map[string][]string{
		"none": every, "qsbr": every, "rcu": every, "debra": every,
		"ibr": every, "hp": every, "he": every,
		"nbr": signalling, "nbr+": signalling,
	}
	for _, name := range catalog.SchemeNames {
		pool := mem.NewPool[retireRec](mem.Config{MaxThreads: 2})
		sch, err := catalog.NewScheme(name, pool, 2, retireCfg())
		if err != nil {
			t.Fatal(err)
		}
		_, member := sch.(smr.Member)
		_, drainer := sch.(smr.Drainer)
		_, revoker := sch.(smr.SlotRevoker)
		_, recordable := sch.(smr.Recordable)
		got := map[string]bool{
			"Member": member, "Drainer": drainer, "SlotRevoker": revoker, "Recordable": recordable,
		}
		for _, seam := range want[name] {
			if !got[seam] {
				t.Errorf("%s: lost smr.%s", name, seam)
			}
			delete(got, seam)
		}
		for seam, has := range got {
			if has {
				t.Errorf("%s: implements undeclared smr.%s", name, seam)
			}
		}
	}
}

// segArena is a recording fake mem.SegmentArena: handles are small
// integers, a segment is a directory entry, and every free is recorded.
type segArena struct {
	weight map[mem.Ptr]int
	hdrs   map[mem.Ptr]*mem.Hdr
	freed  []mem.Ptr
}

func (a *segArena) Free(tid int, p mem.Ptr) { a.FreeBatch(tid, []mem.Ptr{p}) }
func (a *segArena) FreeBatch(_ int, ps []mem.Ptr) {
	for _, p := range ps {
		a.freed = append(a.freed, p)
		delete(a.weight, p)
	}
}
func (a *segArena) Hdr(p mem.Ptr) *mem.Hdr {
	if a.hdrs[p] == nil {
		a.hdrs[p] = &mem.Hdr{}
	}
	return a.hdrs[p]
}
func (a *segArena) Valid(mem.Ptr) bool          { return true }
func (a *segArena) SizeCache(int, int)          {}
func (a *segArena) DrainCache(int)              {}
func (a *segArena) SegmentWeight(p mem.Ptr) int { return a.weight[p] }

// TestSegmentLandsWhole states the one segment rule directly: every scheme
// bags a retired segment as the original handle, at full weight, however far
// the run overshoots the scheme's burst, and frees it as that one handle.
// hp and nbr readers protect the run by naming the handle, so no piece of it
// may stand under another name; he and ibr keep the birth era stamped at
// allocation.
func TestSegmentLandsWhole(t *testing.T) {
	const threads = 2
	cfg := retireCfg()
	weight := 3 * cfg.Threshold
	for _, name := range catalog.SchemeNames {
		t.Run(name, func(t *testing.T) {
			const seg = mem.Ptr(2)
			arena := &segArena{weight: map[mem.Ptr]int{seg: weight}, hdrs: map[mem.Ptr]*mem.Hdr{}}
			sch, err := catalog.NewScheme(name, arena, threads, cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := sch.Guard(0)
			g.OnAlloc(seg)
			birth := arena.Hdr(seg).Birth()
			g.RetireSegment(seg)

			if (name == "he" || name == "ibr") && birth == 0 {
				t.Fatal("era scheme did not stamp a birth era")
			}
			st := sch.Stats()
			if st.Segments != 1 || st.SegRecords != uint64(weight) || st.Retired != uint64(weight) {
				t.Fatalf("segments=%d segRecords=%d retired=%d, want 1 piece standing for %d records",
					st.Segments, st.SegRecords, st.Retired, weight)
			}
			for p, hdr := range arena.hdrs {
				if p != seg {
					t.Errorf("scheme stamped a header of %v, a handle it was never given", p)
				}
				if hdr.Birth() != birth {
					t.Errorf("handle %v has birth era %d, want the run's %d", p, hdr.Birth(), birth)
				}
			}

			// Nothing protects the run, so draining frees it: the handle the
			// arena sees is what the scheme bagged.
			for round := 0; round < 4; round++ {
				for tid := 0; tid < threads; tid++ {
					sch.(smr.Drainer).Drain(tid)
				}
			}
			want := 1
			if name == "none" {
				want = 0
			}
			if len(arena.freed) != want {
				t.Fatalf("arena saw %v freed, want %d handle(s)", arena.freed, want)
			}
			if want == 1 && arena.freed[0] != seg {
				t.Fatalf("freed %v, want the original handle %v", arena.freed[0], seg)
			}
			if st := sch.Stats(); want > 0 && st.Freed != uint64(weight) {
				t.Fatalf("freed weight = %d, want %d", st.Freed, weight)
			}
		})
	}
}

// TestSchemeAllocs pins "0 allocs/op" for every scheme's two reclamation
// paths once warm: (a) a retire→pass cycle, and (b) the recovery path a
// lease release runs (the three Quiescer calls of Registry.runRecovery)
// while a peer pins the survivors, so they travel to the orphan list and
// back on every run.
func TestSchemeAllocs(t *testing.T) {
	const threads, runs, rehearsal = 2, 4, 8
	cfg := retireCfg()
	// Wide enough for the peer to pin one record per run.
	req := ds.Requirements{Slots: 16, Reservations: 16}
	for _, name := range catalog.SchemeNames {
		t.Run(name, func(t *testing.T) {
			pool := mem.NewPool[retireRec](mem.Config{MaxThreads: threads})
			sch, err := catalog.NewSchemeFor(name, pool, threads, cfg, req)
			if err != nil {
				t.Fatal(err)
			}
			reg := smr.NewRegistry(threads)
			reg.Bind(sch)
			worker, err := reg.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			g := sch.Guard(worker.Tid())
			alloc := func(tid, n int) []mem.Ptr {
				ps := make([]mem.Ptr, n)
				for i := range ps {
					ps[i], _ = pool.Alloc(tid)
					sch.Guard(tid).OnAlloc(ps[i])
				}
				return ps
			}
			retire := func(p mem.Ptr) {
				g.BeginOp()
				g.Retire(p)
				g.EndOp()
			}

			// (a) Each run retires two thresholds' worth of records, so at
			// least one pass fires; the records are allocated up front.
			burst := 2 * cfg.Threshold
			fresh := alloc(worker.Tid(), (rehearsal+runs+1)*burst)
			cycle := func() {
				for _, p := range fresh[:burst] {
					retire(p)
				}
				fresh = fresh[burst:]
			}
			for i := 0; i < rehearsal; i++ {
				cycle()
			}
			if got := testing.AllocsPerRun(runs, cycle); got != 0 {
				t.Errorf("warm retire→pass cycle: %v allocs/run, want 0", got)
			}

			// (b) The peer pins every record the worker is about to retire, by
			// whatever its scheme calls protection, and stays inside its
			// operation. leaky keeps nothing a peer could pin.
			if name == "none" {
				return
			}
			q := sch.(smr.Member)
			peer, err := reg.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			pinned := alloc(worker.Tid(), rehearsal+runs+1)
			pg := sch.Guard(peer.Tid())
			pin := func() {
				pg.BeginOp()
				pg.BeginRead()
				for i, p := range pinned {
					pg.Protect(i, p)
					pg.Reserve(i, p)
				}
				pg.EndRead()
			}
			release := func() {
				retire(pinned[0])
				pinned = pinned[1:]
				q.ReclaimAll(worker.Tid())
				q.OrphanSurvivors(worker.Tid())
				q.ResetSlot(worker.Tid())
			}
			pin()
			for i := 0; i < rehearsal; i++ {
				release()
			}
			if reg.OrphanCount() == 0 {
				t.Fatal("the peer pinned nothing: the recovery path never orphaned a survivor")
			}
			// Unpin (a fresh read phase clears reservations, EndOp the rest)
			// and drain, so the measured runs start from short bags with warm
			// capacity everywhere.
			pg.BeginRead()
			pg.EndRead()
			pg.EndOp()
			for round := 0; round < 4; round++ {
				sch.(smr.Drainer).Drain(worker.Tid())
				sch.(smr.Drainer).Drain(peer.Tid())
			}
			pin()
			if got := testing.AllocsPerRun(runs, release); got != 0 {
				t.Errorf("recovery with pinned survivors: %v allocs/run, want 0", got)
			}
			if reg.OrphanCount() == 0 {
				t.Fatal("measured recoveries orphaned nothing")
			}
		})
	}
}
