package hmlist_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nbr/internal/catalog"
	"nbr/internal/ds/hmlist"
	"nbr/internal/dstest"
)

// TestVariantsEquivalent runs the identical operation sequence against both
// restart policies: E4's modification must change performance only, never
// results — the property that makes DEBRA-restarts vs DEBRA-norestarts a
// fair comparison.
func TestVariantsEquivalent(t *testing.T) {
	lr := hmlist.New(1, hmlist.Restart)
	ln := hmlist.New(1, hmlist.NoRestart)
	sr, err := catalog.NewScheme("debra", lr.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := catalog.NewScheme("debra", ln.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	gr, gn := sr.Guard(0), sn.Guard(0)

	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8000; i++ {
		key := uint64(rng.Intn(64)) + 1
		switch rng.Intn(3) {
		case 0:
			if lr.Insert(gr, key) != ln.Insert(gn, key) {
				t.Fatalf("op %d: Insert(%d) diverged", i, key)
			}
		case 1:
			if lr.Delete(gr, key) != ln.Delete(gn, key) {
				t.Fatalf("op %d: Delete(%d) diverged", i, key)
			}
		default:
			if lr.Contains(gr, key) != ln.Contains(gn, key) {
				t.Fatalf("op %d: Contains(%d) diverged", i, key)
			}
		}
	}
	if lr.Len() != ln.Len() {
		t.Fatalf("final sizes diverged: %d vs %d", lr.Len(), ln.Len())
	}
	if err := lr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := ln.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSetSemantics checks random operation sequences against a map
// model; one draw in four comes from dstest.TopBitKeys (pairs differing only
// in bit 63 must stay two keys under the shared list's (Key, Sub) order).
func TestQuickSetSemantics(t *testing.T) {
	l := hmlist.New(1, hmlist.Restart)
	s, err := catalog.NewScheme("nbr+", l.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	model := map[uint64]bool{}
	f := func(key uint16, op uint8) bool {
		k := uint64(key%40) + 1
		if key%4 == 0 {
			k = dstest.TopBitKeys[int(key/4)%len(dstest.TopBitKeys)]
		}
		switch op % 3 {
		case 0:
			ok := l.Insert(g, k) == !model[k]
			model[k] = true
			return ok
		case 1:
			ok := l.Delete(g, k) == model[k]
			delete(model, k)
			return ok
		default:
			return l.Contains(g, k) == model[k]
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
