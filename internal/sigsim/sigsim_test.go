package sigsim

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func neutralizes(f func()) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Neutralized); !ok {
				panic(r)
			}
			hit = true
		}
	}()
	f()
	return false
}

// TestStateFillsWholeCacheLines: the per-slot states sit side by side in one
// array, so a state that is not a whole number of cache lines puts one slot's
// delivery counters on its neighbour's word line — and senders add to that
// word while every BeginRead and EndRead loads it.
func TestStateFillsWholeCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(state{}); size%64 != 0 {
		t.Fatalf("state is %d bytes, not a multiple of the 64-byte cache line", size)
	}
}

func TestPollNoSignalNoop(t *testing.T) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	if neutralizes(func() { g.Poll(0) }) {
		t.Fatal("poll with no pending signal must not neutralize")
	}
}

func TestPollRestartableNeutralizes(t *testing.T) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.SignalAll(1)
	if !neutralizes(func() { g.Poll(0) }) {
		t.Fatal("restartable thread must be neutralized by a pending signal")
	}
	if g.Delivered(0) != 1 {
		t.Fatalf("delivered = %d, want 1", g.Delivered(0))
	}
}

func TestPollNonRestartableIgnores(t *testing.T) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.ClearRestartable(0)
	g.SignalAll(1)
	if neutralizes(func() { g.Poll(0) }) {
		t.Fatal("non-restartable thread must ignore the signal")
	}
	if st := g.Stats(); st.Ignored != 1 {
		t.Fatalf("ignored = %d, want 1", st.Ignored)
	}
}

func TestClearRestartableWithPendingNeutralizes(t *testing.T) {
	// The paper's §4.3 race: a signal arrives during Φread but the thread
	// reaches endΦread before polling. The transition itself must deliver.
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.SignalAll(1)
	if !neutralizes(func() { g.ClearRestartable(0) }) {
		t.Fatal("endΦread with an undelivered signal must neutralize")
	}
	if g.Restartable(0) != true {
		t.Fatal("neutralization must abort the transition")
	}
}

func TestClearRestartableCleanTransition(t *testing.T) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.ClearRestartable(0)
	if g.Restartable(0) {
		t.Fatal("flag must be clear after ClearRestartable")
	}
}

func TestSetRestartableAbsorbsPending(t *testing.T) {
	// Signals received while quiescent or in Φwrite are ignored; arriving at
	// the next sigsetjmp point must not re-trigger them.
	g := NewGroup(2, Config{})
	g.SignalAll(1)
	g.SignalAll(1)
	g.SetRestartable(0)
	if neutralizes(func() { g.Poll(0) }) {
		t.Fatal("absorbed signals must not neutralize after BeginRead")
	}
}

func TestSignalAllSkipsSelf(t *testing.T) {
	g := NewGroup(3, Config{})
	g.SignalAll(1)
	if g.Posted(1) != 0 {
		t.Fatal("sender must not signal itself")
	}
	if g.Posted(0) != 1 || g.Posted(2) != 1 {
		t.Fatal("all peers must be signalled")
	}
	if st := g.Stats(); st.Sent != 2 {
		t.Fatalf("sent = %d, want 2", st.Sent)
	}
}

func TestSignalsCoalesce(t *testing.T) {
	// POSIX does not queue standard signals; several posts may be handled by
	// one delivery, which is sufficient for restart-or-ignore semantics.
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.SignalAll(1)
	g.SignalAll(1)
	g.SignalAll(1)
	if !neutralizes(func() { g.Poll(0) }) {
		t.Fatal("must neutralize")
	}
	if g.Delivered(0) != 3 {
		t.Fatalf("delivery must consume all posts, delivered=%d", g.Delivered(0))
	}
	if neutralizes(func() { g.Poll(0) }) {
		t.Fatal("coalesced signals must not deliver twice")
	}
}

func TestStatsNeutralizedCount(t *testing.T) {
	g := NewGroup(2, Config{})
	for i := 0; i < 5; i++ {
		g.SetRestartable(0)
		g.SignalAll(1)
		if !neutralizes(func() { g.Poll(0) }) {
			t.Fatal("must neutralize")
		}
	}
	if st := g.Stats(); st.Neutralized != 5 || st.Sent != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpinCostCharged(t *testing.T) {
	// Just exercises the cost path; correctness is unchanged by spinning.
	g := NewGroup(2, Config{SendSpin: 100, HandleSpin: 100})
	g.SetRestartable(0)
	g.SignalAll(1)
	if !neutralizes(func() { g.Poll(0) }) {
		t.Fatal("must neutralize with costs enabled")
	}
}

// TestTransitionRace hammers the §4.3 interleaving: one goroutine signals
// while the owner cycles through read/write phases. The invariant under
// test: every successful ClearRestartable implies no signal was pending at
// transition time, so a reclaimer that posted before the transition always
// either neutralizes the thread or observes it non-restartable after its
// reservations are published. Also serves as a deadlock/livelock check.
func TestTransitionRace(t *testing.T) {
	g := NewGroup(2, Config{})
	const posts = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < posts; i++ {
			g.SignalAll(1)
		}
	}()
	cycles, restarts := 0, 0
	for g.Delivered(0) < posts {
		g.SetRestartable(0)
		hit := neutralizes(func() {
			g.Poll(0)
			g.ClearRestartable(0)
		})
		if hit {
			restarts++
		} else {
			cycles++
		}
		if !hit && g.Restartable(0) {
			t.Fatal("clean cycle left thread restartable")
		}
		g.SetRestartable(0) // absorb leftovers so Delivered advances
	}
	wg.Wait()
	if g.Delivered(0) != posts {
		t.Fatalf("delivered %d of %d", g.Delivered(0), posts)
	}
	if cycles == 0 {
		t.Fatal("expected at least some clean transitions")
	}
}

func TestQuickDeliveredNeverExceedsPosted(t *testing.T) {
	g := NewGroup(2, Config{})
	f := func(ops []bool) bool {
		for _, post := range ops {
			if post {
				g.SignalAll(1)
			} else {
				g.SetRestartable(0)
				neutralizes(func() {
					g.Poll(0)
					g.ClearRestartable(0)
				})
			}
			if g.Delivered(0) > g.Posted(0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func revokes(f func()) (hit bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Revoked); !ok {
				panic(r)
			}
			hit = true
		}
	}()
	f()
	return false
}

func TestRevokeKillsAtEveryDeliveryPoint(t *testing.T) {
	resume := map[string]func(g *Group){
		"Poll":             func(g *Group) { g.Poll(0) },
		"SetRestartable":   func(g *Group) { g.SetRestartable(0) },
		"ClearRestartable": func(g *Group) { g.ClearRestartable(0) },
	}
	for name, f := range resume {
		t.Run(name, func(t *testing.T) {
			g := NewGroup(2, Config{})
			g.SetRestartable(0) // frozen mid-read-phase
			g.Revoke(0)
			if !g.IsRevoked(0) {
				t.Fatal("Revoke did not set the revoked bit")
			}
			if !revokes(func() { f(g) }) {
				t.Fatalf("%s on a revoked slot must panic Revoked", name)
			}
			// Sticky: the zombie is killed again at its next delivery point,
			// not just once — only a successor's Attach acknowledges.
			if !revokes(func() { f(g) }) {
				t.Fatalf("second %s did not kill: revocation must be sticky", name)
			}
			if !g.IsRevoked(0) {
				t.Fatal("delivery cleared the revoked bit; only Attach may")
			}
		})
	}
}

func TestRevokeOutranksNeutralization(t *testing.T) {
	g := NewGroup(2, Config{})
	g.SetRestartable(0)
	g.SignalAll(1) // a pending neutralization post...
	g.Revoke(0)    // ...and a revocation: the kill must win
	hit := false
	func() {
		defer func() {
			switch recover().(type) {
			case Revoked:
				hit = true
			case Neutralized:
				t.Fatal("revoked restartable thread was restarted, not killed")
			}
		}()
		g.Poll(0)
	}()
	if !hit {
		t.Fatal("revoked thread passed a delivery point alive")
	}
}

func TestAttachAcknowledgesRevocation(t *testing.T) {
	g := NewGroup(2, Config{})
	g.Revoke(0)
	g.Attach(0) // the successor's ack
	if g.IsRevoked(0) {
		t.Fatal("Attach did not clear the revoked bit")
	}
	if revokes(func() { g.Poll(0) }) {
		t.Fatal("successor killed by its predecessor's revocation")
	}
	if g.Delivered(0) != g.Posted(0) {
		t.Fatalf("Attach absorbed %d of %d posts", g.Delivered(0), g.Posted(0))
	}
	g.SetRestartable(0)
	if neutralizes(func() { g.Poll(0) }) {
		t.Fatal("successor neutralized by an absorbed post")
	}
}

func TestStatsRevokedCount(t *testing.T) {
	g := NewGroup(2, Config{})
	g.Revoke(0)
	revokes(func() { g.Poll(0) })
	revokes(func() { g.ClearRestartable(0) })
	if st := g.Stats(); st.Revoked != 2 {
		t.Fatalf("Stats.Revoked = %d, want 2", st.Revoked)
	}
	if st := g.Stats(); st.Neutralized != 0 {
		t.Fatalf("kills miscounted as neutralizations: %d", st.Neutralized)
	}
}

// TestPollWordsMatchPoll walks one thread through random sequences of every
// operation that moves its state word or its quiet ceiling and checks, after
// each step, that the comparison PollWords publishes says "pending" exactly
// when Poll would deliver: a post beyond the delivered count, or an
// unacknowledged revocation.
func TestPollWordsMatchPoll(t *testing.T) {
	check := func(ops []uint8) bool {
		g := NewGroup(2, Config{})
		word, quiet := g.PollWords(0)
		for i, op := range ops {
			func() {
				defer func() {
					switch r := recover().(type) {
					case nil, Neutralized, Revoked:
					default:
						panic(r)
					}
				}()
				switch op % 6 {
				case 0:
					g.SignalAll(1)
				case 1:
					g.Revoke(0)
				case 2:
					g.Attach(0)
				case 3:
					g.SetRestartable(0)
				case 4:
					g.ClearRestartable(0)
				case 5:
					g.Poll(0)
				}
			}()
			want := g.Posted(0) > g.Delivered(0) || g.IsRevoked(0)
			if got := word.Load() > *quiet; got != want {
				t.Errorf("after op %d of %v: words say pending=%v, posted %d delivered %d revoked %v",
					i, ops, got, g.Posted(0), g.Delivered(0), g.IsRevoked(0))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
