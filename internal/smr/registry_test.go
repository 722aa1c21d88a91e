package smr

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr/internal/mem"
)

func TestRegistryAcquireRelease(t *testing.T) {
	r := boundRegistry(4, &testMember{})
	if r.MaxThreads() != 4 {
		t.Fatalf("MaxThreads = %d", r.MaxThreads())
	}
	l, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if l.Tid() != 0 {
		t.Fatalf("first lease tid = %d, want 0 (fresh slots hand out in order)", l.Tid())
	}
	if !r.Active().Active(0) {
		t.Fatal("leased slot must be active")
	}
	l.Release()
	if r.Active().Active(0) {
		t.Fatal("released slot must leave the active mask")
	}
	l.Release() // idempotent
	if got := r.Active().Count(); got != 0 {
		t.Fatalf("active count = %d after double release", got)
	}
}

func TestRegistryExhaustionAndQuarantineAging(t *testing.T) {
	r := boundRegistry(2, &testMember{})
	a, _ := r.Acquire()
	b, _ := r.Acquire()
	if _, err := r.Acquire(); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("want ErrRegistryFull, got %v", err)
	}
	a.Release()

	// No round has completed since the release: the acquire forces the
	// missing ones and is served the quarantined slot.
	c, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if c.Tid() != a.Tid() {
		t.Fatalf("acquire reused tid %d, want quarantined %d", c.Tid(), a.Tid())
	}
	if got := r.ForcedRounds(); got != quarantineRounds {
		t.Fatalf("ForcedRounds = %d, want %d", got, quarantineRounds)
	}
	c.Release()

	// Once enough rounds complete organically the slot is aged and served
	// as it is, even with a scanner still running.
	r.BeginScan()
	for i := 0; i < quarantineRounds; i++ {
		r.NoteRound()
	}
	d, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if d.Tid() != c.Tid() {
		t.Fatalf("aged acquire handed tid %d, want oldest quarantined %d", d.Tid(), c.Tid())
	}
	if got := r.ForcedRounds(); got != quarantineRounds {
		t.Fatalf("ForcedRounds = %d after an aged acquire, want still %d", got, quarantineRounds)
	}
	r.EndScan()
	d.Release()
	b.Release()
}

// TestRegistryDuplicateReleaseCannotRevokeSuccessor pins the per-acquire
// lease identity: a stale duplicate Release from a previous holder must not
// deactivate the slot's next occupant.
func TestRegistryDuplicateReleaseCannotRevokeSuccessor(t *testing.T) {
	r := boundRegistry(1, &testMember{})
	old, _ := r.Acquire()
	old.Release()
	cur, err := r.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	old.Release() // stale duplicate from the previous holder
	if !r.Active().Active(cur.Tid()) {
		t.Fatal("stale Release revoked the successor's live lease")
	}
	cur.Release()
	if r.Active().Active(cur.Tid()) {
		t.Fatal("owner's Release did not deactivate the slot")
	}
}

func TestRegistryHookOrderAndThreading(t *testing.T) {
	r := boundRegistry(1, &testMember{})
	var order []string
	r.OnAcquire(func(tid int) { order = append(order, "acquire") })
	r.OnRelease(func(tid int) { order = append(order, "release-a") })
	r.OnRelease(func(tid int) { order = append(order, "release-b") })
	l, _ := r.Acquire()
	l.Release()
	want := []string{"acquire", "release-a", "release-b"}
	if len(order) != len(want) {
		t.Fatalf("hooks ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("hooks ran %v, want %v (registration order)", order, want)
		}
	}
}

func TestRegistryOrphans(t *testing.T) {
	r := boundRegistry(2, &testMember{})
	ps := []mem.Ptr{2, 4, 6, 8, 10}
	r.AddOrphans(ps)
	if r.OrphanCount() != 5 {
		t.Fatalf("orphan count = %d", r.OrphanCount())
	}
	got := r.AdoptOrphans(nil, 2)
	if len(got) != 2 || r.OrphanCount() != 3 {
		t.Fatalf("capped adoption took %d, %d left", len(got), r.OrphanCount())
	}
	got = r.AdoptOrphans(got[:0], 0)
	if len(got) != 3 || r.OrphanCount() != 0 {
		t.Fatalf("full adoption took %d, %d left", len(got), r.OrphanCount())
	}
	r.AddOrphans(nil) // no-op
	if r.OrphanCount() != 0 {
		t.Fatal("empty AddOrphans must not disturb the count")
	}
}

// TestRegistryNoAliasingUnderChurn hammers concurrent acquire/release and
// asserts no tid is ever held by two goroutines at once.
func TestRegistryNoAliasingUnderChurn(t *testing.T) {
	const slots, workers, rounds = 4, 16, 300
	r := boundRegistry(slots, &testMember{})
	var owners [slots]atomic.Int32
	var aliased atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l, err := r.Acquire()
				if err != nil {
					r.NoteRound() // stand in for reclaim traffic aging slots
					continue
				}
				if owners[l.Tid()].Add(1) != 1 {
					aliased.Store(true)
				}
				owners[l.Tid()].Add(-1)
				l.Release()
			}
		}()
	}
	wg.Wait()
	if aliased.Load() {
		t.Fatal("a tid was leased to two goroutines at once")
	}
	if got := r.Active().Count(); got != 0 {
		t.Fatalf("active count = %d at quiescence", got)
	}
}

// waitQueued waits until n AcquireCtx callers are parked on the admission
// channel. The waiting count rises just before the blocking send, so only
// the goroutine dump proves each send is queued.
func waitQueued(t *testing.T, r *Registry, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for i := 0; i < 5000; i++ {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, ".(*Registry).AcquireCtx(") && strings.Contains(g, "[select") {
				parked++
			}
		}
		if parked == n && r.Waiters() == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%d AcquireCtx callers never queued (Waiters = %d)", n, r.Waiters())
}

// TestRegistryAdmissionHandsSlotToWaiter pins FIFO admission at its source:
// with every slot leased and one AcquireCtx caller queued, a release passes
// the freed slot to the waiter, so a bare Acquire arriving after it fails.
func TestRegistryAdmissionHandsSlotToWaiter(t *testing.T) {
	r := boundRegistry(2, &testMember{})
	a, _ := r.Acquire()
	b, _ := r.Acquire()
	got := make(chan *Lease)
	go func() {
		l, err := r.AcquireCtx(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- l
	}()
	waitQueued(t, r, 1)
	a.Release()
	if _, err := r.Acquire(); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("bare Acquire overtook a queued waiter: %v", err)
	}
	l := <-got
	if l == nil || l.Tid() != a.Tid() {
		t.Fatalf("waiter got %v, want the freed slot %d", l, a.Tid())
	}
	if r.Waiters() != 0 {
		t.Fatalf("Waiters = %d after admission", r.Waiters())
	}
	l.Release()
	b.Release()
}

// TestRegistryAcquireCtxCancelKeepsCapacity pins that a waiter leaving
// without a slot takes no capacity with it: neither one cancelled while
// queued nor one whose context ends after it was admitted but before a slot
// could be proved safe.
func TestRegistryAcquireCtxCancelKeepsCapacity(t *testing.T) {
	r := boundRegistry(2, &stuckMember{})
	a, _ := r.Acquire()
	b, _ := r.Acquire()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error)
	go func() {
		_, err := r.AcquireCtx(ctx)
		errc <- err
	}()
	waitQueued(t, r, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: got %v, want Canceled", err)
	}
	if r.Waiters() != 0 {
		t.Fatalf("Waiters = %d after cancellation", r.Waiters())
	}

	// Admitted, but the member's forced rounds never complete, so the
	// quarantined slot cannot be proved safe before the deadline.
	a.Release()
	short, cancelShort := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancelShort()
	if _, err := r.AcquireCtx(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("admitted waiter with no provable slot: got %v, want DeadlineExceeded", err)
	}
	b.Release()
	for i := 0; i < quarantineRounds; i++ {
		r.NoteRound() // both releases age
	}

	held := make([]*Lease, r.MaxThreads())
	for i := range held {
		l, err := r.Acquire()
		if err != nil {
			t.Fatalf("Acquire %d of %d after the waiters left: %v", i+1, len(held), err)
		}
		held[i] = l
	}
	if _, err := r.Acquire(); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("Acquire past capacity: %v", err)
	}
	for _, l := range held {
		l.Release()
	}
}
