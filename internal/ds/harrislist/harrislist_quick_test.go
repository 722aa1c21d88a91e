package harrislist_test

import (
	"testing"
	"testing/quick"

	"nbr/internal/catalog"
	"nbr/internal/ds/harrislist"
	"nbr/internal/dstest"
)

// TestQuickSetSemantics drives random operation sequences against a map
// model under aggressive reclamation (tiny bag), so logical results,
// marking, chain splicing and reclamation all interleave. One draw in four
// comes from dstest.TopBitKeys: pairs differing only in bit 63 must stay two
// keys under the shared list's (Key, Sub) order.
func TestQuickSetSemantics(t *testing.T) {
	l := harrislist.New(1)
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 64
	s, err := catalog.NewScheme("nbr+", l.Arena(), 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Guard(0)
	model := map[uint64]bool{}
	f := func(key uint16, op uint8) bool {
		k := uint64(key%48) + 1
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
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// Everything deleted must eventually be retired once traversals clean
	// the chains.
	for k := uint64(1); k <= 48; k++ {
		l.Contains(g, k)
	}
	st := s.Stats()
	if st.Freed > st.Retired {
		t.Fatalf("freed %d > retired %d", st.Freed, st.Retired)
	}
}

// TestChainRetireExactlyOnce checks the splice-retire ownership under
// concurrency indirectly: the pool's double-free CAS would panic if two
// threads retired (and later freed) the same chain node twice.
func TestChainRetireExactlyOnce(t *testing.T) {
	const threads = 4
	l := harrislist.New(threads)
	cfg := catalog.DefaultSchemeConfig()
	cfg.BagSize = 32
	s, err := catalog.NewScheme("nbr+", l.Arena(), threads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, threads)
	for tid := 0; tid < threads; tid++ {
		go func(tid int) {
			defer func() {
				if r := recover(); r != nil {
					done <- errFromPanic(r)
					return
				}
				done <- nil
			}()
			g := s.Guard(tid)
			rng := uint64(tid)*2654435761 + 7
			for i := 0; i < 5000; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng>>33)%16 + 1
				switch (rng >> 10) % 3 {
				case 0:
					l.Insert(g, k)
				case 1:
					l.Delete(g, k)
				default:
					l.Contains(g, k)
				}
			}
		}(tid)
	}
	for i := 0; i < threads; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func errFromPanic(r any) error {
	if e, ok := r.(error); ok {
		return e
	}
	return &panicErr{r}
}

type panicErr struct{ v any }

func (p *panicErr) Error() string { return "panic in worker" }
