package harrislist_test

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds/harrislist"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func factory() dstest.Factory {
	return dstest.Factory{
		Name: "harris",
		New: func(threads int) dstest.Instance {
			l := harrislist.New(threads)
			return dstest.Instance{Set: l, Arena: l.Arena()}
		},
		// The deterministic oversized-splice input: the Harris list is the
		// one structure whose unlink length is unbounded (a whole marked
		// chain in one CAS), so it carries the BoundChain regression.
		Chain: func(inst dstest.Instance, g smr.Guard, n int) int {
			return inst.Set.(*harrislist.List).BuildMarkedChain(g, n)
		},
	}
}

func TestMatrix(t *testing.T) { dstest.RunAll(t, factory()) }

func newWithGuard(t *testing.T, scheme string) (*harrislist.List, smr.Guard) {
	t.Helper()
	l := harrislist.New(1)
	s, err := catalog.NewScheme(scheme, l.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l, s.Guard(0)
}

func TestBasics(t *testing.T) {
	l, g := newWithGuard(t, "nbr+")
	if l.Len() != 0 || l.Contains(g, 1) {
		t.Fatal("fresh list must be empty")
	}
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		if !l.Insert(g, k) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if l.Insert(g, 5) {
		t.Fatal("duplicate insert succeeded")
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	if !l.Delete(g, 3) || l.Delete(g, 3) {
		t.Fatal("delete semantics wrong")
	}
	if l.Contains(g, 3) || !l.Contains(g, 7) {
		t.Fatal("membership wrong after delete")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMarkedNodeSplicedByLaterSearch(t *testing.T) {
	// A delete whose physical unlink fails leaves a marked node; the next
	// traversal must splice and retire it.
	l, g := newWithGuard(t, "debra")
	for k := uint64(1); k <= 10; k++ {
		l.Insert(g, k)
	}
	for k := uint64(1); k <= 10; k += 2 {
		if !l.Delete(g, k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	// Traversals over the whole range clean any leftovers.
	for k := uint64(1); k <= 10; k++ {
		want := k%2 == 0
		if got := l.Contains(g, k); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReinsertAfterDelete(t *testing.T) {
	// Exercises handle recycling: the same key cycles through insert /
	// delete so freed slots are reused with new generations.
	l, g := newWithGuard(t, "nbr")
	for i := 0; i < 2000; i++ {
		if !l.Insert(g, 42) {
			t.Fatalf("cycle %d: insert failed", i)
		}
		if !l.Delete(g, 42) {
			t.Fatalf("cycle %d: delete failed", i)
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
