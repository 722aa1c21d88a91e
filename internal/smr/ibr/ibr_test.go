// Package ibr_test is the 2GE-IBR behavioural suite. The implementation lives
// in internal/smr/era, shared with its sibling scheme; the suite keeps its
// own directory so each scheme's tests stay addressable by name.
package ibr_test

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr/era"
)

type rec struct{ v uint64 }

func setup(threads int, cfg era.Config) (*mem.Pool[rec], *era.Scheme) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: threads})
	return pool, era.NewIBR(pool, threads, cfg)
}

// alloc allocates and stamps a record's birth era through the guard.
func alloc(pool *mem.Pool[rec], s *era.Scheme, tid int) mem.Ptr {
	h, _ := pool.Alloc(tid)
	s.Guard(tid).OnAlloc(h)
	return h
}

func TestReservedIntervalBlocksOverlappingLifetimes(t *testing.T) {
	pool, s := setup(2, era.Config{Threshold: 8, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	g1.BeginOp() // reserves [era, era] now — old records conflict
	target := alloc(pool, s, 0)
	g0.Retire(target) // lifetime [now, now] overlaps g1's reservation
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	// Everything retired after g1.BeginOp has birth ≥ g1.lo, so all of it
	// conflicts while g1 stays in its operation.
	if !pool.Valid(target) {
		t.Fatal("record overlapping an active reservation was freed")
	}
	g1.EndOp()
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if pool.Valid(target) {
		t.Fatal("record not freed after the reservation emptied")
	}
}

func TestOldReservationDoesNotBlockYoungRecords(t *testing.T) {
	// The IBR selling point vs EBR: a stalled reader only pins records
	// whose lifetimes overlap its interval, not everything retired later…
	// unless the reader keeps raising its upper bound via Protect.
	pool, s := setup(2, era.Config{Threshold: 8, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	g1.BeginOp() // interval pinned at the current era; g1 now stalls
	// Let many eras pass, then retire young records: born after g1.hi.
	for i := 0; i < 64; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	young := alloc(pool, s, 0)
	g0.Retire(young)
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if pool.Valid(young) {
		t.Fatal("young record (born after the stalled interval) was not freed")
	}
	g1.EndOp()
}

func TestProtectRaisesUpperBound(t *testing.T) {
	pool, s := setup(2, era.Config{Threshold: 8, EraFreq: 1})
	g0, g1 := s.Guard(0), s.Guard(1)

	g1.BeginOp()
	// g1 touches records as eras advance, raising hi each time.
	for i := 0; i < 16; i++ {
		h := alloc(pool, s, 0)
		g1.Protect(0, h)
		pool.Free(0, h)
	}
	target := alloc(pool, s, 0)
	g1.Protect(0, target) // hi now covers target's birth
	g0.Retire(target)
	for i := 0; i < 32; i++ {
		g0.Retire(alloc(pool, s, 0))
	}
	if !pool.Valid(target) {
		t.Fatal("record inside the raised interval was freed")
	}
	g1.EndOp()
}

func TestEraAdvancesOnAllocAndRetire(t *testing.T) {
	pool, s := setup(1, era.Config{Threshold: 1024, EraFreq: 4})
	for i := 0; i < 64; i++ {
		s.Guard(0).Retire(alloc(pool, s, 0))
	}
	if st := s.Stats(); st.Advances < 16 {
		t.Fatalf("era advanced only %d times", st.Advances)
	}
}

func TestBirthAndRetireStamped(t *testing.T) {
	pool, s := setup(1, era.Config{EraFreq: 1, Threshold: 1 << 20})
	h := alloc(pool, s, 0)
	s.Guard(0).Retire(h)
	hdr := pool.Hdr(h)
	if hdr.Birth() == 0 || hdr.Retire() < hdr.Birth() {
		t.Fatalf("bad era stamps: birth=%d retire=%d", hdr.Birth(), hdr.Retire())
	}
}

func TestNeedsValidationAndName(t *testing.T) {
	_, s := setup(1, era.Config{})
	if !s.Guard(0).NeedsValidation() {
		t.Fatal("IBR requires link validation")
	}
	if s.Name() != "ibr" {
		t.Fatalf("name = %q", s.Name())
	}
}
