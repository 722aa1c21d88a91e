package dgtbst

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestTicketLockWraps cycles one node's lock across its 15-bit ticket field
// three times, setting removed half-way: the owner's wrap must not carry
// into next, and neither field's traffic may disturb the flag.
func TestTicketLockWraps(t *testing.T) {
	tr := New(1)
	const cycles = 100000
	for i := 0; i < cycles; i++ {
		_, hdr := tr.lock(tr.root)
		if got := owner(hdr.Word.Load()); got != uint32(i)&ticketMask {
			t.Fatalf("cycle %d: owner %d, want %d", i, got, uint32(i)&ticketMask)
		}
		if i == cycles/2 {
			setRemoved(hdr)
		}
		if removed(hdr) != (i >= cycles/2) {
			t.Fatalf("cycle %d: removed = %v", i, removed(hdr))
		}
		unlock(hdr)
	}
	_, hdr := tr.routers.MustSlot(tr.root)
	w := hdr.Word.Load()
	if want := uint32(cycles) & ticketMask; w>>nextShift != want || owner(w) != want || !removed(hdr) {
		t.Fatalf("after %d cycles: next %d owner %d removed %v, want %d %d true",
			cycles, w>>nextShift, owner(w), removed(hdr), want, want)
	}
	if w&(1<<(nextShift-1)) != 0 {
		t.Fatalf("the unused bit between owner and next was written: word %#x", w)
	}
}

// TestTicketLockExcludes: two goroutines take one node's ticket lock in turn,
// across the field wrap. The lock word lives in the slot's header, outside
// the Go heap, where the race detector does not see it, so the test is its
// own oracle: an atomic count of the goroutines inside the critical section
// must read 1 on every entry, and a plain counter in the locked record
// itself — the router's key, restored afterwards — must lose no update.
func TestTicketLockExcludes(t *testing.T) {
	tr := New(2)
	const each = 40000
	n, _ := tr.routers.MustSlot(tr.root)
	start := n.key
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n, hdr := tr.lock(tr.root)
				if inside.Add(1) != 1 {
					overlaps.Add(1)
				}
				n.key++
				inside.Add(-1)
				unlock(hdr)
			}
		}()
	}
	wg.Wait()
	if got := overlaps.Load(); got != 0 {
		t.Errorf("%d of %d entries found the other goroutine inside: the lock does not exclude", got, 2*each)
	}
	if got := n.key - start; got != 2*each {
		t.Errorf("the locked record's counter moved %d, want %d: the lock lost updates", got, 2*each)
	}
	n.key = start
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsHeldLock: a reachable node whose word shows a held lock
// fails the quiescent check.
func TestValidateRejectsHeldLock(t *testing.T) {
	tr := New(1)
	_, hdr := tr.lock(tr.root)
	if tr.Validate() == nil {
		t.Fatal("Validate must reject a reachable node whose lock is held")
	}
	unlock(hdr)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
