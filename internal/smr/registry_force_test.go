package smr

import (
	"sync/atomic"
	"testing"

	"nbr/internal/hist"
	"nbr/internal/obs"
)

// testScheme is the smallest scheme a registry can bind, shaped like leaky:
// a forced round is an empty bracketed collection, and a departing slot has
// nothing to quiesce.
type testScheme struct {
	r      *Registry
	forces atomic.Int64
}

func (m *testScheme) Name() string               { return "test" }
func (m *testScheme) Guard(int) Guard            { return nil }
func (m *testScheme) Stats() Stats               { return Stats{} }
func (m *testScheme) Handoffs() hist.Histogram   { return hist.Histogram{} }
func (m *testScheme) GarbageBound() int          { return Unbounded }
func (m *testScheme) ReclaimBurst() int          { return 0 }
func (m *testScheme) Quiesce(...int) bool        { return true }
func (m *testScheme) AttachRegistry(r *Registry) { m.r = r }
func (m *testScheme) Recover(int)                {}
func (m *testScheme) ResetSlot(int)              {}
func (m *testScheme) RevokeSlot(int)             {}
func (m *testScheme) SetRecorder(*obs.Recorder)  {}

func (m *testScheme) ForceRound() {
	m.forces.Add(1)
	m.r.BeginScan()
	m.r.EndScan()
}

// halfScheme completes a forced round only on every second call: a slow
// collector, which take must keep forcing until the slot it serves has aged.
type halfScheme struct{ testScheme }

func (m *halfScheme) ForceRound() {
	if m.forces.Add(1)%2 == 0 {
		m.r.BeginScan()
		m.r.EndScan()
	}
}

// stealScheme runs steal inside its second forced round, once the round has
// completed: a peer acting while take is off the lock.
type stealScheme struct {
	testScheme
	steal func()
}

func (m *stealScheme) ForceRound() {
	m.testScheme.ForceRound()
	if m.forces.Load() == 2 {
		m.steal()
	}
}

// boundRegistry returns a registry of max slots bound to m.
func boundRegistry(max int, m Scheme) *Registry {
	r := NewRegistry(max)
	r.Bind(m)
	return r
}

// TestRegistryLeakyShapedMemberForcesRounds pins the reuse rule where churn
// outran scan rounds and the scheme's own rounds are empty: a released slot
// is served to the next Acquire after exactly quarantineRounds forced
// rounds.
func TestRegistryLeakyShapedMemberForcesRounds(t *testing.T) {
	m := &testScheme{}
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
		t.Fatalf("ForcedRounds = %d (scheme forced %d), want %d", got, m.forces.Load(), quarantineRounds)
	}
	l2.Release()
}

// TestRegistryForcedRoundsAgeQuarantine pins that forced rounds age the
// quarantine head whatever else is in flight: with another scan mid-flight
// and the head freshly quarantined, the acquire forces the missing rounds
// and succeeds without waiting for that scan.
func TestRegistryForcedRoundsAgeQuarantine(t *testing.T) {
	r := boundRegistry(1, &testScheme{})
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

// TestRegistrySlowForcerAgesSlot pins that the round guarantee is never
// traded away: when only every second forced round completes, take keeps
// forcing, and the slot is served only once quarantineRounds rounds have
// completed since its release.
func TestRegistrySlowForcerAgesSlot(t *testing.T) {
	m := &halfScheme{}
	r := boundRegistry(1, m)
	var served uint64
	r.OnAcquire(func(int) { served = r.rounds.Load() })
	l, _ := r.Acquire()
	l.Release()
	released := r.quarantine[0].round
	l2, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if served < released+quarantineRounds {
		t.Fatalf("slot released at round %d served at round %d, want at least %d",
			released, served, released+quarantineRounds)
	}
	if got := m.forces.Load(); got != 2*quarantineRounds {
		t.Fatalf("scheme forced %d rounds, want %d", got, 2*quarantineRounds)
	}
	l2.Release()
}

// TestRegistryAcquireSurvivesStolenHead pins that a token names its slot:
// while an Acquire forces rounds for the quarantined slot it popped, a peer
// releases the other slot and a competing Acquire runs. Both must be served,
// on different slots.
func TestRegistryAcquireSurvivesStolenHead(t *testing.T) {
	m := &stealScheme{}
	r := boundRegistry(2, m)
	a, _ := r.Acquire()
	b, _ := r.Acquire()
	var peer *Lease
	m.steal = func() {
		b.Release()
		var err error
		if peer, err = r.Acquire(); err != nil {
			t.Errorf("competing Acquire: %v", err)
		}
	}
	a.Release()
	l, err := r.Acquire()
	if err != nil {
		t.Fatalf("Acquire lost its slot to a competing one: %v", err)
	}
	if peer == nil || peer.Tid() == l.Tid() {
		t.Fatalf("outer lease on tid %d, competing lease %v: want two distinct slots", l.Tid(), peer)
	}
	l.Release()
	peer.Release()
}
