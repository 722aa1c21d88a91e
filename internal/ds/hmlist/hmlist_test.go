package hmlist_test

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds/hmlist"
	"nbr/internal/dstest"
	"nbr/internal/smr"
)

func TestMatrixRestart(t *testing.T) {
	dstest.RunAll(t, dstest.Factory{
		Name: "hmlist",
		New: func(threads int) dstest.Instance {
			l := hmlist.New(threads, hmlist.Restart)
			return dstest.Instance{Set: l, Arena: l.Arena()}
		},
	})
}

func TestMatrixNoRestart(t *testing.T) {
	dstest.RunAll(t, dstest.Factory{
		Name: "hmlist-norestart",
		New: func(threads int) dstest.Instance {
			l := hmlist.New(threads, hmlist.NoRestart)
			return dstest.Instance{Set: l, Arena: l.Arena()}
		},
	})
}

func TestNoRestartRejectsNBR(t *testing.T) {
	// Table 1: HM04 without the E4 modification cannot use NBR.
	for _, scheme := range []string{"nbr", "nbr+"} {
		if catalog.Runnable("hmlist-norestart", scheme) {
			t.Fatalf("matrix must reject hmlist-norestart under %s", scheme)
		}
	}
	for _, scheme := range []string{"nbr", "nbr+", "debra", "hp"} {
		if !catalog.Runnable("hmlist", scheme) {
			t.Fatalf("matrix must admit the restart variant under %s", scheme)
		}
	}
}

func newWithGuard(t *testing.T, scheme string, v hmlist.Variant) (*hmlist.List, smr.Guard) {
	t.Helper()
	l := hmlist.New(1, v)
	s, err := catalog.NewScheme(scheme, l.Arena(), 1, catalog.DefaultSchemeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l, s.Guard(0)
}

func TestBasicsBothVariants(t *testing.T) {
	for _, v := range []hmlist.Variant{hmlist.Restart, hmlist.NoRestart} {
		l, g := newWithGuard(t, "debra", v)
		for _, k := range []uint64{4, 2, 8, 6} {
			if !l.Insert(g, k) {
				t.Fatalf("variant %d: Insert(%d) failed", v, k)
			}
		}
		if l.Insert(g, 4) || !l.Contains(g, 6) || l.Contains(g, 5) {
			t.Fatalf("variant %d: membership wrong", v)
		}
		if !l.Delete(g, 2) || l.Delete(g, 2) || l.Len() != 3 {
			t.Fatalf("variant %d: delete wrong", v)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
	}
}

func TestHeavyRecycling(t *testing.T) {
	l, g := newWithGuard(t, "nbr+", hmlist.Restart)
	for i := 0; i < 2000; i++ {
		k := uint64(i%3 + 1)
		l.Insert(g, k)
		l.Delete(g, k)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
