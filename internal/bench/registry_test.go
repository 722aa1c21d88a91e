package bench

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
)

// TestDSRequirementsMatchInstances pins the width registry to the
// structures' own declarations: every catalog.DSNames entry must be in the table,
// and the table's widths must equal what a constructed instance declares —
// a registry that drifts narrow would overrun reservation rows, one that
// drifts wide would silently forfeit the narrow-scan fast path.
func TestDSRequirementsMatchInstances(t *testing.T) {
	for _, name := range catalog.DSNames {
		req, err := catalog.DSRequirements(name)
		if err != nil {
			t.Fatalf("%s missing from the width registry: %v", name, err)
		}
		inst, err := catalog.NewDS(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if req != inst.Req {
			t.Errorf("%s: registry declares %+v, instance declares %+v", name, req, inst.Req)
		}
	}
	if _, err := catalog.DSRequirements("bogus"); err == nil {
		t.Error("unknown structure must be rejected")
	}
}

// TestMaxRequirements pins the fold: the result is the smallest widths every
// named structure fits under, and an empty list is the zero value.
func TestMaxRequirements(t *testing.T) {
	got, err := catalog.MaxRequirements([]string{"lazylist", "harris", "abtree"})
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Requirements{Slots: 3, Reservations: 3, Threshold: ds.DefaultThreshold}
	if got != want {
		t.Errorf("catalog.MaxRequirements = %+v, want %+v", got, want)
	}
	zero, err := catalog.MaxRequirements(nil)
	if err != nil {
		t.Fatal(err)
	}
	if zero != (ds.Requirements{}) {
		t.Errorf("catalog.MaxRequirements(nil) = %+v, want zero", zero)
	}
	if _, err := catalog.MaxRequirements([]string{"lazylist", "bogus"}); err == nil {
		t.Error("unknown structure must propagate an error")
	}
}
