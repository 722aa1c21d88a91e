package catalog_test

import (
	"os"
	"path/filepath"
	"testing"

	"nbr/internal/catalog"
)

func TestNewSchemeAllNames(t *testing.T) {
	inst, err := catalog.NewDS("lazylist", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range catalog.SchemeNames {
		s, err := catalog.NewScheme(name, inst.Arena, 2, catalog.DefaultSchemeConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
	}
	// "leaky" is the none baseline's package, not a scheme name.
	for _, name := range []string{"bogus", "leaky"} {
		if _, err := catalog.NewScheme(name, inst.Arena, 2, catalog.DefaultSchemeConfig()); err == nil {
			t.Fatalf("unknown scheme %q must error", name)
		}
		if catalog.CheckScheme(name) == nil {
			t.Fatalf("CheckScheme accepted unknown scheme %q", name)
		}
	}
}

func TestNewDSAllNames(t *testing.T) {
	for _, name := range catalog.DSNames {
		inst, err := catalog.NewDS(name, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.Set == nil || inst.Arena == nil || inst.MemStats == nil {
			t.Fatalf("%s: incomplete instance", name)
		}
		if err := inst.Set.Validate(); err != nil {
			t.Fatalf("%s: fresh instance invalid: %v", name, err)
		}
	}
	if _, err := catalog.NewDS("bogus", 2); err == nil {
		t.Fatal("unknown structure must error")
	}
}

func TestTable1Coverage(t *testing.T) {
	for _, d := range catalog.DSNames {
		for _, s := range catalog.SchemeNames {
			if _, ok := catalog.Table1Verdict(d, s); !ok {
				t.Fatalf("no Table 1 verdict for %s/%s", d, s)
			}
		}
	}
}

func TestTable1KnownVerdicts(t *testing.T) {
	cases := []struct {
		ds, scheme string
		ok         bool
	}{
		{"lazylist", "nbr+", true},
		{"lazylist", "hp", false},
		{"hmlist-norestart", "nbr", false},
		{"hmlist", "nbr", true},
		{"harris", "hp", true},
		{"dgt", "ibr", false},
		{"abtree", "he", false},
		{"abtree", "debra", true},
	}
	for _, c := range cases {
		v, ok := catalog.Table1Verdict(c.ds, c.scheme)
		if !ok || v.OK != c.ok {
			t.Fatalf("catalog.Table1Verdict(%s, %s) = %+v, want OK=%v", c.ds, c.scheme, v, c.ok)
		}
	}
}

func TestRunnableExceptions(t *testing.T) {
	// The paper's E1 runs HP on the lazy list and DGT despite Table 1.
	if !catalog.Runnable("lazylist", "hp") || !catalog.Runnable("dgt", "hp") {
		t.Fatal("benchmark-mode exceptions missing")
	}
	if catalog.Runnable("hmlist-norestart", "nbr+") {
		t.Fatal("hmlist-norestart must stay rejected for NBR")
	}
	if catalog.Runnable("abtree", "hp") {
		t.Fatal("abtree has no benchmark-mode HP exception")
	}
}

// TestDSDirs: every row names the directory its constructor's package lives
// in, which is what nbrtable1 -loc counts call sites under.
func TestDSDirs(t *testing.T) {
	for _, name := range catalog.DSNames {
		dir, err := catalog.DSDir(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join("..", "..", dir, filepath.Base(dir)+".go")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := catalog.DSDir("bogus"); err == nil {
		t.Error("unknown structure must be rejected")
	}
}
