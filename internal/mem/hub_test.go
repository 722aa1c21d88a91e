package mem

import (
	"testing"
)

type recA struct{ v uint64 }
type recB struct{ v [3]uint64 }

// TestHubRouting pins the tag plumbing end to end: pools attached under
// distinct tags stamp their handles, the Hub routes Free/Hdr/Valid to the
// owner, and a mixed FreeBatch reaches both pools.
func TestHubRouting(t *testing.T) {
	h := NewHub(2)
	pa := NewPool[recA](Config{MaxThreads: 2, Tag: h.NextTag()})
	h.Attach(0, pa)
	pb := NewPool[recB](Config{MaxThreads: 2, Tag: h.NextTag()})
	h.Attach(1, pb)
	if h.Arenas() != 2 {
		t.Fatalf("Arenas = %d", h.Arenas())
	}

	a1, _ := pa.Alloc(0)
	b1, _ := pb.Alloc(0)
	if a1.ArenaTag() != 0 || b1.ArenaTag() != 1 {
		t.Fatalf("tags: a=%d b=%d", a1.ArenaTag(), b1.ArenaTag())
	}
	if a1.Idx() == 0 || a1.Idx() != b1.Idx() {
		// Both pools reserve slot 0, so their first allocations get the
		// same in-pool index — the tag is the only thing telling them apart.
		t.Fatalf("expected same in-pool idx, got %d vs %d", a1.Idx(), b1.Idx())
	}
	if uint64(a1) == uint64(b1) {
		t.Fatal("handles from different pools must differ")
	}

	if !h.Valid(a1) || !h.Valid(b1) {
		t.Fatal("fresh handles must be valid through the Hub")
	}
	h.Hdr(a1).SetBirth(7)
	if pa.Hdr(a1).Birth() != 7 {
		t.Fatal("Hub.Hdr did not reach pool A's header")
	}
	if pb.Hdr(b1).Birth() == 7 {
		t.Fatal("Hub.Hdr leaked into pool B")
	}

	// Mixed-owner batch: both records must come back to their own pools.
	a2, _ := pa.Alloc(0)
	b2, _ := pb.Alloc(0)
	h.FreeBatch(0, []Ptr{a1, b1, b2, a2})
	for _, p := range []Ptr{a1, a2, b1, b2} {
		if h.Valid(p) {
			t.Fatalf("%v still valid after FreeBatch", p)
		}
	}
	sa, sb := pa.Stats(), pb.Stats()
	if sa.Frees != 2 || sb.Frees != 2 {
		t.Fatalf("frees routed wrong: poolA=%d poolB=%d (want 2/2)", sa.Frees, sb.Frees)
	}

	// Marked handles route like their unmarked selves.
	a3, _ := pa.Alloc(1)
	h.Free(1, a3.WithMark())
	if pa.Valid(a3) {
		t.Fatal("marked free did not reach pool A")
	}
}

// TestHubLateAttachSizesCache is the regression test for pools attached
// after leases are held: Hub.SizeCache historically fanned out only to
// already-attached pools, so a late attachment kept its default cache target
// and paid a shared-shard flush per burst. Attach must replay the recorded
// burst for every thread slot.
func TestHubLateAttachSizesCache(t *testing.T) {
	const burst = 1024
	h := NewHub(4)
	// Leases exist first: the scheme declares its reclamation burst for a
	// live slot while no pool is attached yet.
	h.SizeCache(2, burst)

	p := NewPool[recA](Config{MaxThreads: 4, Tag: h.NextTag()})
	h.Attach(0, p)

	ps := make([]Ptr, burst)
	for i := range ps {
		ps[i], _ = p.Alloc(2)
	}
	h.FreeBatch(2, ps)
	if ops := p.Stats().GlobalOps; ops != 0 {
		t.Fatalf("late-attached pool hit the shared shards %d times for one declared burst; its cache was not sized", ops)
	}
	if st := p.Stats(); st.Frees != burst {
		t.Fatalf("Frees = %d, want %d", st.Frees, burst)
	}
}

// TestHubFreesLandInTheCall pins the Hub's statelessness: with a reclamation
// burst declared far above the burst's size, a mixed burst is still wholly
// freed when FreeBatch returns — every record's generation flipped, both
// pools' Frees counted, one dispatch per owner, nothing held back.
func TestHubFreesLandInTheCall(t *testing.T) {
	h := NewHub(1)
	pa := NewPool[recA](Config{MaxThreads: 1, Tag: h.NextTag()})
	h.Attach(0, pa)
	pb := NewPool[recB](Config{MaxThreads: 1, Tag: h.NextTag()})
	h.Attach(1, pb)
	h.SizeCache(0, 512)

	var ps []Ptr
	for i := 0; i < 3; i++ {
		a, _ := pa.Alloc(0)
		b, _ := pb.Alloc(0)
		ps = append(ps, a, b)
	}
	h.FreeBatch(0, ps)

	if frees := pa.Stats().Frees + pb.Stats().Frees; frees != 6 {
		t.Fatalf("pools counted %d frees on return, want 6", frees)
	}
	for _, p := range ps {
		if h.Valid(p) {
			t.Fatalf("%v still valid after FreeBatch returned", p)
		}
	}
	if st := h.Stats(); st.Bursts != 1 || st.Dispatches != 2 {
		t.Fatalf("want 1 burst, 2 dispatches (one per owner): %+v", st)
	}
	if h.Staged() != 0 {
		t.Fatalf("Staged = %d, want 0", h.Staged())
	}
}

// TestHubUniformFastPath pins the single-structure path: a uniform burst is
// one group — one pool dispatch — so a single-structure runtime pays only a
// tag scan.
func TestHubUniformFastPath(t *testing.T) {
	h := NewHub(1)
	pa := NewPool[recA](Config{MaxThreads: 1, Tag: h.NextTag()})
	h.Attach(0, pa)
	h.SizeCache(0, 64)

	ps := make([]Ptr, 8)
	for i := range ps {
		ps[i], _ = pa.Alloc(0)
	}
	h.FreeBatch(0, ps)
	st := h.Stats()
	if st.Bursts != 1 || st.Dispatches != 1 {
		t.Fatalf("uniform burst must dispatch directly: %+v", st)
	}
	if pa.Stats().Frees != 8 {
		t.Fatalf("Frees = %d, want 8", pa.Stats().Frees)
	}
}

// TestHubMisroutePanics pins the release-side tag check: a handle freed
// into the wrong pool directly (bypassing the Hub) must panic rather than
// corrupt a foreign slot.
func TestHubMisroutePanics(t *testing.T) {
	h := NewHub(1)
	pa := NewPool[recA](Config{MaxThreads: 1, Tag: h.NextTag()})
	h.Attach(0, pa)
	pb := NewPool[recB](Config{MaxThreads: 1, Tag: h.NextTag()})
	h.Attach(1, pb)
	b, _ := pb.Alloc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("freeing a tag-1 handle into the tag-0 pool must panic")
		}
	}()
	pa.Free(0, b)
}

// TestHubUnattachedTagPanics pins route's corruption check.
func TestHubUnattachedTagPanics(t *testing.T) {
	h := NewHub(1)
	pa := NewPool[recA](Config{MaxThreads: 1, Tag: 0})
	h.Attach(0, pa)
	p, _ := pa.Alloc(0)
	forged := Ptr(uint64(p) | uint64(3)<<tagShift) // tag 3 never attached
	defer func() {
		if recover() == nil {
			t.Fatal("routing a never-attached tag must panic")
		}
	}()
	h.Free(0, forged)
}

// TestHubUnattachedSecondGroupPanics: a burst is routed group by group, so a
// never-attached tag in its second group panics after the first group was
// freed.
func TestHubUnattachedSecondGroupPanics(t *testing.T) {
	h := NewHub(1)
	pa := NewPool[recA](Config{MaxThreads: 1, Tag: 0})
	h.Attach(0, pa)
	p, _ := pa.Alloc(0)
	q, _ := pa.Alloc(0)
	forged := Ptr(uint64(q) | uint64(3)<<tagShift) // tag 3 never attached
	defer func() {
		if recover() == nil {
			t.Fatal("a never-attached tag in the second group must panic")
		}
		if pa.Valid(p) || pa.Stats().Frees != 1 {
			t.Fatal("the first group must have been freed before the panic")
		}
	}()
	h.FreeBatch(0, []Ptr{p, forged})
}
