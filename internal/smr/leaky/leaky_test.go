package leaky_test

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr"
	"nbr/internal/smr/leaky"
)

type rec struct{ v uint64 }

func TestRetireNeverFrees(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	s := leaky.New(pool, 1)
	g := s.Guard(0)
	var hs []mem.Ptr
	for i := 0; i < 1000; i++ {
		h, _ := pool.Alloc(0)
		g.Retire(h)
		hs = append(hs, h)
	}
	for _, h := range hs {
		if !pool.Valid(h) {
			t.Fatal("leaky freed a record")
		}
	}
	st := s.Stats()
	if st.Retired != 1000 || st.Freed != 0 || st.Garbage() != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuardIsPerThread(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 3})
	s := leaky.New(pool, 3)
	for tid := 0; tid < 3; tid++ {
		if got := s.Guard(tid).Tid(); got != tid {
			t.Fatalf("guard %d reports tid %d", tid, got)
		}
	}
	if s.Guard(1) != s.Guard(1) {
		t.Fatal("Guard must be idempotent per tid")
	}
}

func TestNoValidationNeeded(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	s := leaky.New(pool, 1)
	g := s.Guard(0)
	if g.NeedsValidation() {
		t.Fatal("leaky must not require validation")
	}
	// Phase calls are no-ops but must be callable.
	g.BeginOp()
	g.BeginRead()
	g.Reserve(0, mem.Null)
	g.EndRead()
	g.Protect(0, mem.Null)
	g.OnAlloc(mem.Null)
	g.EndOp()
}

func TestOnStalePanics(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	s := leaky.New(pool, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("OnStale must panic under leaky")
		}
	}()
	s.Guard(0).OnStale(mem.Null)
}

func TestName(t *testing.T) {
	s := leaky.New(nil, 1)
	if s.Name() != "none" {
		t.Fatalf("name = %q", s.Name())
	}
}

// TestLeaseReuse binds leaky to a registry like any other scheme: a released
// slot is served again after the registry forces its quarantine rounds (two),
// each an empty collection, and recovery finds nothing to free.
func TestLeaseReuse(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	s := leaky.New(pool, 1)
	reg := smr.NewRegistry(1)
	reg.Bind(s)
	l, err := reg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	h, _ := pool.Alloc(l.Tid())
	s.Guard(l.Tid()).Retire(h)
	l.Release()
	if !pool.Valid(h) {
		t.Fatal("leaky freed a record on release")
	}
	l2, err := reg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.ForcedRounds(); got != 2 {
		t.Fatalf("ForcedRounds = %d, want 2", got)
	}
	l2.Release()
}
