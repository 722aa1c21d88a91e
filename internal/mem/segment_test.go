package mem

import (
	"testing"
	"testing/quick"
)

// TestAllocBatchStatsExact is the AllocBatch property test: for any batch
// size, carving once must leave the pool in a state statistically identical
// to n individual Allocs — same alloc/free counters, same liveness — and the
// run's members must be live, contiguous, valid handles.
func TestAllocBatchStatsExact(t *testing.T) {
	prop := func(sz uint8) bool {
		n := int(sz)%128 + 1
		batch := newTestPool(1)
		loop := newTestPool(1)

		run := batch.AllocBatch(0, n)
		for i := 0; i < n; i++ {
			loop.Alloc(0)
		}

		if run.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			p := run.At(i)
			if !batch.Valid(p) {
				return false
			}
			// Contiguity: member handles are index arithmetic off First.
			if p != run.First()+Ptr(i) {
				return false
			}
			if r := batch.Raw(p); r.key != 0 || r.next != 0 {
				return false // batch slots are guaranteed zero
			}
		}
		bs, ls := batch.Stats(), loop.Stats()
		return bs.Allocs == ls.Allocs && bs.Frees == ls.Frees && bs.Live == ls.Live
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBatchInvalidSizePanics(t *testing.T) {
	p := newTestPool(1)
	defer func() {
		if recover() == nil {
			t.Fatal("AllocBatch(0) must panic")
		}
	}()
	p.AllocBatch(0, 0)
}

// TestSegmentFreeFansOut checks the whole lifecycle: wrap a run, weigh it,
// free the handle, and observe every member slot released with exact
// statistics (n members + 1 handle).
func TestSegmentFreeFansOut(t *testing.T) {
	p := newTestPool(1)
	const n = 10
	run := p.AllocBatch(0, n)
	seg := p.NewSegment(0, run)

	if w := p.SegmentWeight(seg); w != n {
		t.Fatalf("SegmentWeight = %d, want %d", w, n)
	}
	if w := p.SegmentWeight(run.At(0)); w != 0 {
		t.Fatalf("member slot reported as segment (weight %d)", w)
	}
	if w := SegWeight(p, seg.WithMark()); w != n {
		t.Fatalf("SegWeight must ignore the mark bit, got %d", w)
	}

	p.Free(0, seg)
	for i := 0; i < n; i++ {
		if p.Valid(run.At(i)) {
			t.Fatalf("member %d still live after the handle was freed", i)
		}
	}
	if p.Valid(seg) {
		t.Fatal("handle slot still live after Free")
	}
	st := p.Stats()
	if st.Frees != n+1 || st.Live != int64(st.Allocs)-int64(st.Frees) {
		t.Fatalf("stats after fan-out: %+v", st)
	}
	if w := p.SegmentWeight(seg); w != 0 {
		t.Fatalf("freed segment still in directory (weight %d)", w)
	}
}

// TestFreeBatchFansOutSegments mixes a segment handle with ordinary slots in
// one FreeBatch, the shape a scheme's sweep produces.
func TestFreeBatchFansOutSegments(t *testing.T) {
	p := newTestPool(1)
	const n = 6
	run := p.AllocBatch(0, n)
	seg := p.NewSegment(0, run)
	a, _ := p.Alloc(0)
	b, _ := p.Alloc(0)

	p.FreeBatch(0, []Ptr{a, seg, b})
	for i := 0; i < n; i++ {
		if p.Valid(run.At(i)) {
			t.Fatalf("member %d survived FreeBatch fan-out", i)
		}
	}
	for _, q := range []Ptr{a, seg, b} {
		if p.Valid(q) {
			t.Fatalf("%v survived FreeBatch", q)
		}
	}
	if st := p.Stats(); st.Frees != n+3 {
		t.Fatalf("Frees = %d, want %d", st.Frees, n+3)
	}
}

// TestNewSegmentWrongTagPanics pins the tag ownership check.
func TestNewSegmentWrongTagPanics(t *testing.T) {
	p := NewPool[rec](Config{MaxThreads: 1, Tag: 1})
	q := NewPool[rec](Config{MaxThreads: 1, Tag: 2})
	run := p.AllocBatch(0, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("NewSegment of a foreign run must panic")
		}
	}()
	q.NewSegment(0, run)
}
