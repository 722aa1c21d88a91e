package lazylist_test

import (
	"testing"
	"testing/quick"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/lazylist"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "lazylist",
		New: func(threads int) dstest.Instance {
			l := lazylist.New(threads)
			return dstest.Instance{Set: l, Arena: l.Arena()}
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*lazylist.List, smr.Guard) {
	t.Helper()
	l := lazylist.New(1)
	s, err := catalog.NewScheme(scheme, l.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l, s.Guard(0)
}

func TestEmptyList(t *testing.T) {
	l, g := newWithGuard(t, "nbr+")
	if l.Len() != 0 {
		t.Fatal("new list not empty")
	}
	if l.Contains(g, 5) {
		t.Fatal("empty list contains 5")
	}
	if l.Delete(g, 5) {
		t.Fatal("delete from empty list succeeded")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteBasics(t *testing.T) {
	l, g := newWithGuard(t, "nbr+")
	if !l.Insert(g, 10) || !l.Insert(g, 5) || !l.Insert(g, 20) {
		t.Fatal("fresh inserts must succeed")
	}
	if l.Insert(g, 10) {
		t.Fatal("duplicate insert must fail")
	}
	if got := l.Len(); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	if !l.Contains(g, 5) || !l.Contains(g, 10) || !l.Contains(g, 20) || l.Contains(g, 15) {
		t.Fatal("membership wrong")
	}
	if !l.Delete(g, 10) || l.Delete(g, 10) {
		t.Fatal("delete semantics wrong")
	}
	if l.Contains(g, 10) {
		t.Fatal("deleted key still present")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedOrderMaintained(t *testing.T) {
	l, g := newWithGuard(t, "debra")
	for _, k := range []uint64{9, 3, 7, 1, 8, 2, 6, 4, 5} {
		l.Insert(g, k)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{2, 4, 6, 8} {
		l.Delete(g, k)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestBoundaryKeys(t *testing.T) {
	l, g := newWithGuard(t, "nbr")
	if !l.Insert(g, 1) {
		t.Fatal("min usable key must insert")
	}
	if !l.Insert(g, ds.MaxKey-1) {
		t.Fatal("max usable key must insert")
	}
	if !l.Contains(g, 1) || !l.Contains(g, ds.MaxKey-1) {
		t.Fatal("boundary keys missing")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetSemantics(t *testing.T) {
	l, g := newWithGuard(t, "nbr+")
	model := make(map[uint64]bool)
	f := func(key uint16, op uint8) bool {
		k := uint64(key%50) + 1
		switch op % 3 {
		case 0:
			return l.Insert(g, k) == !model[k] && func() bool { model[k] = true; return true }()
		case 1:
			ok := l.Delete(g, k) == model[k]
			delete(model, k)
			return ok
		default:
			return l.Contains(g, k) == model[k]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotSize pins the list's per-record footprint: a 16-byte node behind
// the 8-byte slot header that also carries its lock, no era header inline.
func TestSlotSize(t *testing.T) {
	if got := lazylist.New(1).MemStats().SlotSize; got != 24 {
		t.Fatalf("lazylist slot is %d bytes, want 24", got)
	}
}
