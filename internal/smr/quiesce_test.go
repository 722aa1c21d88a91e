package smr

import (
	"testing"

	"nbr/internal/mem"
)

// scriptedGuard is a guard whose full-strength pass the test supplies.
type scriptedGuard struct {
	Limbo
	pass   func(*Limbo)
	passes int
}

func (g *scriptedGuard) FullPass() { g.passes++; g.pass(&g.Limbo) }

// TestQuiesceStops pins Quiesce's stop rules on one guard holding three
// records: a drain that frees one record a pass ends when the books balance,
// a fruitless one after its second round, and one whose every pass advances
// without freeing — an epoch drain under live traffic — at the round cap.
func TestQuiesceStops(t *testing.T) {
	for _, c := range []struct {
		name   string
		pass   func(*Limbo)
		passes int
		ok     bool
	}{
		{"frees one a pass", func(l *Limbo) { l.Sweep(1, func(mem.Ptr) bool { return false }) }, 3, true},
		{"fruitless", func(*Limbo) {}, 2, false},
		{"advances forever", func(l *Limbo) { l.Advances.Inc() }, quiesceRounds, false},
	} {
		var k Kernel
		k.Init(Spec{Name: "test", Arena: &countingArena{}, Threads: 1})
		g := &scriptedGuard{pass: c.pass}
		k.Bind(0, &g.Limbo, g)
		for i := uint64(1); i <= 3; i++ {
			g.Retire(mem.Ptr(2 * i))
		}
		if ok := k.Quiesce(0); ok != c.ok || g.passes != c.passes {
			t.Errorf("%s: Quiesce = %v after %d passes, want %v after %d", c.name, ok, g.passes, c.ok, c.passes)
		}
	}
}
