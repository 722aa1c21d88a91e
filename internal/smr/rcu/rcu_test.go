// Package rcu_test is the RCU behavioural suite. The implementation lives
// in internal/smr/epoch, shared with its sibling scheme; the suite keeps its
// own directory so each scheme's tests stay addressable by name.
package rcu_test

import (
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr/epoch"
)

type rec struct{ v uint64 }

func setup(threads, threshold int) (*mem.Pool[rec], *epoch.Scheme) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: threads})
	return pool, epoch.NewRCU(pool, threads, epoch.Config{Threshold: threshold})
}

func churn(pool *mem.Pool[rec], s *epoch.Scheme, tid, n int) {
	g := s.Guard(tid)
	for i := 0; i < n; i++ {
		g.BeginOp()
		h, _ := pool.Alloc(tid)
		g.Retire(h)
		g.EndOp()
	}
}

func TestIdlePeersDoNotBlock(t *testing.T) {
	// Unlike QSBR, a registered thread that never runs an operation is
	// announced idle and must not stall reclamation.
	pool, s := setup(4, 8)
	churn(pool, s, 0, 200)
	if st := s.Stats(); st.Freed == 0 {
		t.Fatalf("idle peers blocked reclamation: %+v", st)
	}
}

func TestActiveReaderBlocksReclamation(t *testing.T) {
	pool, s := setup(2, 8)
	reader := s.Guard(1)
	reader.BeginOp() // in a critical section, never leaves
	churn(pool, s, 0, 64)
	before := s.Stats().Freed
	churn(pool, s, 0, 256)
	if after := s.Stats().Freed; after != before {
		t.Fatalf("freed records while a reader was in a critical section (%d -> %d)", before, after)
	}
	reader.EndOp()
	churn(pool, s, 0, 256)
	if after := s.Stats().Freed; after == before {
		t.Fatal("no reclamation after the reader left")
	}
}

func TestRecordsRetiredDuringReaderStayLive(t *testing.T) {
	pool, s := setup(2, 4)
	reader := s.Guard(1)
	reader.BeginOp()
	g := s.Guard(0)
	var hs []mem.Ptr
	for i := 0; i < 32; i++ {
		g.BeginOp()
		h, _ := pool.Alloc(0)
		g.Retire(h)
		hs = append(hs, h)
		g.EndOp()
	}
	for _, h := range hs {
		if !pool.Valid(h) {
			t.Fatal("record freed while a concurrent reader could still hold it")
		}
	}
	reader.EndOp()
}

func TestEpochAdvances(t *testing.T) {
	pool, s := setup(1, 4)
	churn(pool, s, 0, 100)
	if st := s.Stats(); st.Advances == 0 {
		t.Fatalf("epoch never advanced: %+v", st)
	}
}

func TestName(t *testing.T) {
	_, s := setup(1, 4)
	if s.Name() != "rcu" {
		t.Fatalf("name = %q", s.Name())
	}
}
