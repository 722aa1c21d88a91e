package abtree_test

import (
	"testing"
	"testing/quick"

	"nbr/internal/catalog"
	"nbr/internal/ds/abtree"
)

// TestQuickSetSemantics randomizes operations against a map model with the
// structural validator run periodically, under a tiny limbo bag so COW
// leaves recycle constantly.
func TestQuickSetSemantics(t *testing.T) {
	tr := abtree.New(1)
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 64
	s, err := catalog.NewScheme("nbr+", tr.Arena(), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	model := map[uint64]bool{}
	n := 0
	f := func(key uint16, op uint8) bool {
		k := uint64(key%300) + 1
		n++
		if n%500 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("structural invariant broken mid-run: %v", err)
			}
		}
		switch op % 3 {
		case 0:
			ok := tr.Insert(g, k) == !model[k]
			model[k] = true
			return ok
		case 1:
			ok := tr.Delete(g, k) == model[k]
			delete(model, k)
			return ok
		default:
			return tr.Contains(g, k) == model[k]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6000}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, p := range model {
		if p {
			want++
		}
	}
	if tr.Len() != want {
		t.Fatalf("Len = %d, model = %d", tr.Len(), want)
	}
}

// TestGrowShrinkCycles drives the tree through repeated full grow/shrink
// cycles, exercising root growth and collapse in both directions.
func TestGrowShrinkCycles(t *testing.T) {
	tr := abtree.New(1)
	s, err := catalog.NewScheme("debra", tr.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	const n = 300
	for cycle := 0; cycle < 4; cycle++ {
		for k := uint64(1); k <= n; k++ {
			if !tr.Insert(g, k) {
				t.Fatalf("cycle %d: Insert(%d) failed", cycle, k)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("cycle %d grown: %v", cycle, err)
		}
		for k := uint64(1); k <= n; k++ {
			if !tr.Delete(g, k) {
				t.Fatalf("cycle %d: Delete(%d) failed", cycle, k)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("cycle %d: Len = %d after full delete", cycle, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("cycle %d shrunk: %v", cycle, err)
		}
	}
}
