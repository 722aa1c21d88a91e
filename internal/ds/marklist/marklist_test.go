package marklist_test

import (
	"testing"
	"unsafe"

	"nbr/internal/ds/marklist"
	"nbr/internal/mem"
)

// The traversal, splice and write steps run under every scheme through the
// three embedding structures' dstest matrices; what is pinned here is the
// layout and the quiescent walk those suites lean on as their oracle.

// link builds head → nodes... → tail by hand (quiescent) and returns the
// nodes' handles.
func link(l *marklist.List, nodes ...[2]uint64) []mem.Ptr {
	ps := make([]mem.Ptr, len(nodes))
	next := l.Tail
	for i := len(nodes) - 1; i >= 0; i-- {
		next = l.NewNode(0, nodes[i][0], uint32(nodes[i][1]), next)
		ps[i] = next
	}
	if !l.CasLink(l.Head, l.Tail, next) {
		panic("link: list not empty")
	}
	return ps
}

// TestSlotSize pins the per-record footprint of all three structures: a
// 16-byte record behind the 8-byte slot header that also carries Sub.
func TestSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(marklist.Node{}); got != 16 {
		t.Fatalf("record is %d bytes, want 16", got)
	}
	l := marklist.New(mem.Config{MaxThreads: 1})
	if got := l.MemStats().SlotSize; got != 24 {
		t.Fatalf("slot is %d bytes, want 24", got)
	}
}

// TestNewNodeOverwritesRecycledWord: the pool never writes the header word,
// so a recycled slot holds its previous occupant's until NewNode stores the
// new one — also when the new one is zero.
func TestNewNodeOverwritesRecycledWord(t *testing.T) {
	l := marklist.New(mem.Config{MaxThreads: 1})
	p := l.NewNode(0, 7, 1, mem.Null)
	l.Pool.Free(0, p)
	q := l.NewNode(0, 7, 0, mem.Null)
	if q.Idx() != p.Idx() {
		t.Fatalf("fixture: slot %d not recycled (got %d)", p.Idx(), q.Idx())
	}
	if _, hdr := l.Pool.Slot(q); hdr.Word.Load() != 0 {
		t.Fatalf("recycled record kept Sub %d", hdr.Word.Load())
	}
}

func TestWalkOrder(t *testing.T) {
	l := marklist.New(mem.Config{MaxThreads: 1})
	link(&l, [2]uint64{1, 0}, [2]uint64{1, 1}, [2]uint64{2, 0}, [2]uint64{1<<64 - 1, 0})
	var seen [][2]uint64
	err := l.Walk(func(_ mem.Ptr, v marklist.View) { seen = append(seen, [2]uint64{v.Key, uint64(v.Sub)}) })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 || seen[1] != [2]uint64{1, 1} || l.Len() != 4 {
		t.Fatalf("walk visited %v, Len %d", seen, l.Len())
	}

	for name, nodes := range map[string][][2]uint64{
		"sub out of order": {{1, 1}, {1, 0}},
		"duplicate":        {{3, 0}, {3, 0}},
		"key out of order": {{4, 0}, {2, 1}},
		"head's own place": {{0, 0}},
	} {
		l := marklist.New(mem.Config{MaxThreads: 1})
		link(&l, nodes...)
		if l.Validate() == nil {
			t.Errorf("%s: Validate accepted %v", name, nodes)
		}
	}
}

// TestMarkedAndFreed: a marked node is not counted and is exempt from the
// order; a freed node still linked is corruption.
func TestMarkedAndFreed(t *testing.T) {
	l := marklist.New(mem.Config{MaxThreads: 1})
	ps := link(&l, [2]uint64{5, 0}, [2]uint64{3, 0}, [2]uint64{7, 0})
	if l.Validate() == nil {
		t.Fatal("5,3,7 accepted unmarked")
	}
	if !l.CasLink(ps[1], ps[2], ps[2].WithMark()) {
		t.Fatal("fixture: marking 3 failed")
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("marked node must be exempt from the order: %v", err)
	}
	if got := l.MarkWhere(func(k uint64, _ uint32) bool { return k <= 5 }); got != 1 {
		t.Fatalf("MarkWhere marked %d nodes, want 1 (5; 3 is already marked)", got)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	l.Pool.Free(0, ps[2])
	if l.Validate() == nil {
		t.Fatal("Validate accepted a freed node still linked")
	}
}
