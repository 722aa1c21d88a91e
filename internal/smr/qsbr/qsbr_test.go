// Package qsbr_test is the QSBR behavioural suite. The implementation lives
// in internal/smr/epoch, shared with its sibling scheme; the suite keeps its
// own directory so each scheme's tests stay addressable by name.
package qsbr_test

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr/epoch"
)

type rec struct{ v uint64 }

func setup(threads, threshold int) (*mem.Pool[rec], *epoch.Scheme) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: threads})
	return pool, epoch.NewQSBR(pool, threads, epoch.Config{Threshold: threshold})
}

// churn retires n fresh records through tid.
func churn(pool *mem.Pool[rec], s *epoch.Scheme, tid, n int) []mem.Ptr {
	g := s.Guard(tid)
	var hs []mem.Ptr
	for i := 0; i < n; i++ {
		g.BeginOp()
		h, _ := pool.Alloc(tid)
		g.Retire(h)
		hs = append(hs, h)
		g.EndOp()
	}
	return hs
}

func TestReclaimsAfterGracePeriods(t *testing.T) {
	pool, s := setup(2, 8)
	// Both threads keep announcing quiescent states, so epochs advance and
	// old retirements get freed.
	for round := 0; round < 40; round++ {
		churn(pool, s, 0, 4)
		churn(pool, s, 1, 4)
	}
	st := s.Stats()
	if st.Freed == 0 {
		t.Fatalf("no reclamation despite quiescence: %+v", st)
	}
	if st.Advances == 0 {
		t.Fatal("epoch never advanced")
	}
}

func TestStalledThreadBlocksReclamation(t *testing.T) {
	pool, s := setup(2, 8)
	// Thread 1 never announces (begins an op and stalls): QSBR must stop
	// freeing — the unbounded-garbage behaviour E2 demonstrates.
	s.Guard(1).BeginOp() // no EndOp: announcement stays stale
	churn(pool, s, 0, 64)
	before := s.Stats()
	churn(pool, s, 0, 256)
	after := s.Stats()
	if after.Freed != before.Freed {
		t.Fatalf("freed grew from %d to %d despite a stalled peer", before.Freed, after.Freed)
	}
	if after.Garbage() < 256 {
		t.Fatalf("garbage should accumulate, got %d", after.Garbage())
	}
}

func TestRecoveryAfterStall(t *testing.T) {
	pool, s := setup(2, 8)
	s.Guard(1).BeginOp()
	churn(pool, s, 0, 128)
	s.Guard(1).EndOp() // quiesce
	stalled := s.Stats()
	// Both threads must quiesce repeatedly for two grace periods.
	for round := 0; round < 20; round++ {
		churn(pool, s, 0, 4)
		churn(pool, s, 1, 4)
	}
	if after := s.Stats(); after.Freed <= stalled.Freed {
		t.Fatal("no reclamation progress after the stall cleared")
	}
}

func TestFreedRecordsAreActuallyFreed(t *testing.T) {
	pool, s := setup(1, 4)
	hs := churn(pool, s, 0, 64)
	freed := 0
	for _, h := range hs {
		if !pool.Valid(h) {
			freed++
		}
	}
	if uint64(freed) != s.Stats().Freed {
		t.Fatalf("pool says %d freed, stats say %d", freed, s.Stats().Freed)
	}
	if freed == 0 {
		t.Fatal("single-thread QSBR must reclaim")
	}
}

func TestName(t *testing.T) {
	_, s := setup(1, 4)
	if s.Name() != "qsbr" {
		t.Fatalf("name = %q", s.Name())
	}
}
