// Package he_test is the hazard-eras behavioural suite. The implementation lives
// in internal/smr/era, shared with its sibling scheme; the suite keeps its
// own directory so each scheme's tests stay addressable by name.
package he_test

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr/era"
)

type rec struct{ v uint64 }

func setup(threads int, cfg era.Config) (*mem.Pool[rec], *era.Scheme) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: threads})
	return pool, era.NewHE(pool, threads, cfg)
}

func alloc(pool *mem.Pool[rec], s *era.Scheme, tid int) mem.Ptr {
	h, _ := pool.Alloc(tid)
	s.Guard(tid).OnAlloc(h)
	return h
}

func TestAnnouncedEraBlocksLifetime(t *testing.T) {
	pool, s := setup(2, era.Config{Threshold: 8, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	target := alloc(pool, s, 0)
	g1.BeginOp()
	g1.Protect(0, target) // announces the current era, inside target's lifetime
	g0.Retire(target)
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if !pool.Valid(target) {
		t.Fatal("record whose lifetime contains an announced era was freed")
	}
	g1.EndOp() // clears the era slots
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if pool.Valid(target) {
		t.Fatal("record not freed after the era announcement cleared")
	}
}

func TestEraOutsideLifetimeDoesNotBlock(t *testing.T) {
	pool, s := setup(2, era.Config{Threshold: 8, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	g1.BeginOp()
	old := alloc(pool, s, 0)
	g1.Protect(0, old) // era announced now

	// Let eras advance, then create and retire a young record whose whole
	// lifetime is after the announcement.
	for i := 0; i < 16; i++ {
		pool.Free(0, alloc(pool, s, 0))
	}
	young := alloc(pool, s, 0)
	g0.Retire(young)
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if pool.Valid(young) {
		t.Fatal("young record blocked by an older era announcement")
	}
	g1.EndOp()
	_ = old
}

func TestProtectFastPathSkipsStore(t *testing.T) {
	// Re-protecting under an unchanged era must not panic and must keep
	// the announcement (behavioural check of the HE fast path).
	pool, s := setup(2, era.Config{Threshold: 1 << 20, EraFreq: 1 << 20})
	g1 := s.Guard(1)
	h := alloc(pool, s, 0)
	g1.Protect(0, h)
	g1.Protect(0, h)
	g1.Protect(0, h)
	s.Guard(0).Retire(h)
	if !pool.Valid(h) {
		t.Fatal("retire below threshold must not free")
	}
}

func TestSlotOutOfRangePanics(t *testing.T) {
	pool, s := setup(1, era.Config{Slots: 1})
	h, _ := pool.Alloc(0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slot must panic")
		}
	}()
	s.Guard(0).Protect(1, h)
}

func TestNameAndValidation(t *testing.T) {
	_, s := setup(1, era.Config{})
	if s.Name() != "he" {
		t.Fatalf("name = %q", s.Name())
	}
	if !s.Guard(0).NeedsValidation() {
		t.Fatal("hazard eras require link validation")
	}
}
