package smr_test

import (
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/core"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// fastProtect is DESIGN.md §16's column: which schemes' guards offer the
// barrier fast path. Everything else must take the fall-through.
var fastProtect = map[string]bool{
	"none": true, "qsbr": true, "rcu": true, "debra": true,
	"nbr": true, "nbr+": true,
	"hp": false, "he": false, "ibr": false,
}

func newScheme(t *testing.T, name string, pool *mem.Pool[rec], threads int) smr.Scheme {
	t.Helper()
	sch, err := catalog.NewScheme(name, pool, threads, catalog.SchemeConfig{BagSize: 64, Threshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// countingGuard is a wrapper in the shape of the benchmark's traced twin: it
// embeds the interface, so it forwards every Guard method and nothing else —
// in particular not FastProtect.
type countingGuard struct {
	smr.Guard
	protects int
}

func (c *countingGuard) Protect(slot int, p mem.Ptr) {
	c.protects++
	c.Guard.Protect(slot, p)
}

// TestBarrierFastPathByScheme pins which guards offer FastProtect, and that
// a wrapper around any of them sees exactly one Protect per barrier call —
// what keeps the traced twin's ds.protects_per_op a count of every visited
// record.
func TestBarrierFastPathByScheme(t *testing.T) {
	for _, name := range catalog.SchemeNames {
		t.Run(name, func(t *testing.T) {
			want, listed := fastProtect[name]
			if !listed {
				t.Fatalf("scheme %q has no fast-path verdict in this test", name)
			}
			pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
			g := newScheme(t, name, pool, 2).Guard(0)
			if _, got := g.(smr.FastProtect); got != want {
				t.Fatalf("FastProtect offered = %v, want %v", got, want)
			}
			p, _ := pool.Alloc(0)

			w := &countingGuard{Guard: g}
			b := smr.BarrierOf(w)
			if b.NeedsValidation() != g.NeedsValidation() {
				t.Fatal("barrier disagrees with the guard about validation")
			}
			g.BeginOp()
			g.BeginRead()
			for i := 1; i <= 5; i++ {
				b.Protect(i%2, p)
				if w.protects != i {
					t.Fatalf("after %d barrier calls the wrapper saw %d Protects", i, w.protects)
				}
			}
			g.EndRead()
			g.EndOp()
		})
	}
}

// TestBarrierAnnouncesUnderHP checks the fall-through on an unwrapped
// announcing guard: a hazard published through the barrier pins the record
// exactly as one published through Guard.Protect.
func TestBarrierAnnouncesUnderHP(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
	sch := newScheme(t, "hp", pool, 2)
	reader, writer := sch.Guard(0), sch.Guard(1)
	p, _ := pool.Alloc(1)

	b := smr.BarrierOf(reader)
	reader.BeginOp()
	b.Protect(0, p)
	writer.Retire(p)
	sch.(smr.Drainer).Drain(1)
	if !pool.Valid(p) {
		t.Fatal("record freed under a hazard published through the barrier")
	}
	reader.EndOp()
	sch.(smr.Drainer).Drain(1)
	if pool.Valid(p) {
		t.Fatal("record survived the drain after its hazard was cleared")
	}
}

// outcome is what one Protect call did: how it returned and which sigsim
// delivery counter it moved.
type outcome struct {
	panicked             any
	neutralized, ignored uint64
}

func protectOutcome(sch *core.Scheme, protect func(int, mem.Ptr), p mem.Ptr) (o outcome) {
	before := sch.Stats()
	defer func() {
		o.panicked = recover()
		after := sch.Stats()
		o.neutralized = after.Neutralized - before.Neutralized
		o.ignored = after.Ignored - before.Ignored
	}()
	protect(0, p)
	return
}

// TestBarrierDeliversLikeProtect drives NBR and NBR+ through every delivery
// case twice — once through Guard.Protect, once through the barrier — and
// requires identical outcomes: quiet is silent, a post neutralizes a
// restartable thread and is counted ignored on a non-restartable one, the
// post is consumed, and a revocation kills at every call until acknowledged.
func TestBarrierDeliversLikeProtect(t *testing.T) {
	for _, plus := range []bool{false, true} {
		name := map[bool]string{false: "nbr", true: "nbr+"}[plus]
		t.Run(name, func(t *testing.T) {
			run := func(viaBarrier bool) []outcome {
				pool := mem.NewPool[rec](mem.Config{MaxThreads: 2})
				sch := core.New(pool, 2, core.Config{Plus: plus, BagSize: 64})
				g, peer := sch.Guard(0), sch.Guard(1)
				protect := g.Protect
				if viaBarrier {
					b := smr.BarrierOf(g)
					protect = b.Protect
				}
				// One retired record and a drain is one signalAll from the peer.
				signal := func() {
					q, _ := pool.Alloc(1)
					peer.Retire(q)
					sch.Drain(1)
				}
				p, _ := pool.Alloc(0)
				var out []outcome
				step := func() { out = append(out, protectOutcome(sch, protect, p)) }

				g.BeginOp()
				g.BeginRead()
				step() // quiet
				signal()
				step() // restartable: neutralized
				step() // consumed: quiet again

				g.BeginRead()
				g.EndRead()
				signal()
				step() // non-restartable: ignored, counted
				step() // consumed

				sch.RevokeSlot(0)
				step() // revoked: killed
				step() // sticky: killed again
				return out
			}
			direct, barrier := run(false), run(true)
			want := []outcome{
				{},
				{panicked: sigsim.Neutralized{}, neutralized: 1},
				{},
				{ignored: 1},
				{},
				{panicked: sigsim.Revoked{}},
				{panicked: sigsim.Revoked{}},
			}
			for i := range want {
				if direct[i] != want[i] {
					t.Errorf("step %d through Guard.Protect: got %+v, want %+v", i, direct[i], want[i])
				}
				if barrier[i] != direct[i] {
					t.Errorf("step %d: barrier %+v != Guard.Protect %+v", i, barrier[i], direct[i])
				}
			}
		})
	}
}

// TestBarrierQuietAfterAttach reaps a slot's holder (a sticky revocation plus
// its post land on the slot) and leases the slot again: the successor's
// Attach absorbs both, so its barrier starts quiet and never reaches
// Guard.Protect.
func TestBarrierQuietAfterAttach(t *testing.T) {
	pool := mem.NewPool[rec](mem.Config{MaxThreads: 1})
	sch := core.New(pool, 1, core.Config{})
	reg := smr.NewRegistry(1)
	reg.Bind(sch)

	old, err := reg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	zombie := smr.BarrierOf(sch.Guard(old.Tid()))
	p, _ := pool.Alloc(old.Tid())
	if !reg.Revoke(old) {
		t.Fatal("Revoke lost to a release that never happened")
	}
	if o := protectOutcome(sch, zombie.Protect, p); o.panicked != (sigsim.Revoked{}) {
		t.Fatalf("reaped holder's barrier: got %+v, want a Revoked kill", o)
	}

	next, err := reg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer next.Release()
	if next.Tid() != old.Tid() {
		t.Fatalf("one-slot registry leased slot %d after %d", next.Tid(), old.Tid())
	}
	w := &countingGuard{Guard: sch.Guard(next.Tid())}
	b := smr.BarrierOf(sch.Guard(next.Tid()))
	if o := protectOutcome(sch, b.Protect, p); o != (outcome{}) {
		t.Fatalf("successor's barrier after Attach: got %+v, want quiet", o)
	}
	// The same words through a wrapper: the call is forwarded, and
	// Guard.Protect agrees there is nothing to deliver.
	wb := smr.BarrierOf(w)
	if o := protectOutcome(sch, wb.Protect, p); o != (outcome{}) || w.protects != 1 {
		t.Fatalf("wrapped successor: got %+v after %d Protects, want quiet after 1", o, w.protects)
	}
}
