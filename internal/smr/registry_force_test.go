package smr

import (
	"errors"
	"sync/atomic"
	"testing"

	"nbr/internal/hist"
)

// testMember is the smallest registry member, shaped like leaky: a forced
// round is an empty bracketed collection, and a departing slot has nothing
// to quiesce.
type testMember struct {
	r      *Registry
	forces atomic.Int64
}

func (m *testMember) Name() string               { return "test" }
func (m *testMember) Guard(int) Guard            { return nil }
func (m *testMember) Stats() Stats               { return Stats{} }
func (m *testMember) Handoffs() hist.Histogram   { return hist.Histogram{} }
func (m *testMember) GarbageBound() int          { return Unbounded }
func (m *testMember) ReclaimBurst() int          { return 0 }
func (m *testMember) AttachRegistry(r *Registry) { m.r = r }
func (m *testMember) ReclaimAll(int)             {}
func (m *testMember) OrphanSurvivors(int)        {}
func (m *testMember) ResetSlot(int)              {}

func (m *testMember) ForceRound() {
	m.forces.Add(1)
	m.r.BeginScan()
	m.r.EndScan()
}

// stuckMember's forced rounds never complete: it stands in for a collection
// that cannot finish before a waiter's deadline, so the round counter does
// not move however often take forces.
type stuckMember struct{ testMember }

func (m *stuckMember) ForceRound() { m.forces.Add(1) }

// boundRegistry returns a registry of max slots bound to m.
func boundRegistry(max int, m Member) *Registry {
	r := NewRegistry(max)
	r.Bind(m)
	return r
}

// TestRegistryLeakyShapedMemberForcesRounds pins the reuse rule where churn
// outran scan rounds and the scheme's own rounds are empty: a released slot
// is served to the next Acquire after exactly quarantineRounds forced
// rounds.
func TestRegistryLeakyShapedMemberForcesRounds(t *testing.T) {
	m := &testMember{}
	r := boundRegistry(1, m)
	l, _ := r.Acquire()
	l.Release()
	l2, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if l2.Tid() != l.Tid() {
		t.Fatalf("acquire handed tid %d, want the released %d", l2.Tid(), l.Tid())
	}
	if got := r.ForcedRounds(); got != quarantineRounds || m.forces.Load() != quarantineRounds {
		t.Fatalf("ForcedRounds = %d (member forced %d), want %d", got, m.forces.Load(), quarantineRounds)
	}
	l2.Release()
}

// TestRegistryForcedRoundsAgeQuarantine pins that forced rounds age the
// quarantine head whatever else is in flight: with another scan mid-flight
// and the head freshly quarantined, the acquire forces the missing rounds
// and succeeds without waiting for that scan.
func TestRegistryForcedRoundsAgeQuarantine(t *testing.T) {
	r := boundRegistry(1, &testMember{})
	l, _ := r.Acquire()
	l.Release()
	r.BeginScan()
	l2, err := r.Acquire()
	if err != nil {
		t.Fatalf("acquire under a live scanner: %v", err)
	}
	if got := r.ForcedRounds(); got != quarantineRounds {
		t.Fatalf("ForcedRounds = %d, want %d", got, quarantineRounds)
	}
	r.EndScan()
	l2.Release()
}

// TestRegistryStuckForcerRefuses pins that the round guarantee is never
// traded away: when forced rounds do not complete, the un-aged head is not
// served — Acquire refuses after quarantineRounds attempts — and once the
// rounds do complete it is.
func TestRegistryStuckForcerRefuses(t *testing.T) {
	m := &stuckMember{}
	r := boundRegistry(1, m)
	l, _ := r.Acquire()
	l.Release()
	if _, err := r.Acquire(); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("un-aged slot served with no completed round: %v", err)
	}
	if got := m.forces.Load(); got != quarantineRounds {
		t.Fatalf("member forced %d rounds, want %d", got, quarantineRounds)
	}
	for i := 0; i < quarantineRounds; i++ {
		r.NoteRound()
	}
	l2, err := r.Acquire()
	if err != nil {
		t.Fatalf("aged slot refused: %v", err)
	}
	l2.Release()
}
