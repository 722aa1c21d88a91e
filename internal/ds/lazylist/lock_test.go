package lazylist

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nbr/internal/smr/debra"
)

// TestMarkSurvivesLock: the mark and the lock share a word; locking and
// unlocking around and after the mark never clear it.
func TestMarkSurvivesLock(t *testing.T) {
	l := New(1)
	_, hdr := l.lock(l.tail)
	if marked(hdr) {
		t.Fatal("fresh sentinel reads marked")
	}
	hdr.Word.Or(markedBit)
	unlock(hdr)
	for i := 0; i < 1000; i++ {
		_, hdr = l.lock(l.tail)
		if w := hdr.Word.Load(); w != markedBit|lockBit {
			t.Fatalf("cycle %d: held word %#x, want marked|lock", i, w)
		}
		unlock(hdr)
		if w := hdr.Word.Load(); w != markedBit {
			t.Fatalf("cycle %d: released word %#x, want marked only", i, w)
		}
	}
}

// TestLockExcludes: two goroutines take one node's lock bit in turn. The lock
// word lives in the slot's header, outside the Go heap, where the race
// detector does not see it, so the test is its own oracle: an atomic count of
// the goroutines inside the critical section must read 1 on every entry, and
// a plain counter in the locked record itself — the node's key, restored
// afterwards — must lose no update.
func TestLockExcludes(t *testing.T) {
	l := New(2)
	const each = 40000
	n, _ := l.pool.MustSlot(l.head)
	start := n.key
	var inside, overlaps atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n, hdr := l.lock(l.head)
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
}

// TestDuplicateInsertTakesNoLock: an Insert of a present, unmarked key
// answers from its read phase (ASCY3) — it must return false without
// waiting for that node's lock, which the test holds.
func TestDuplicateInsertTakesNoLock(t *testing.T) {
	l := New(1)
	g := debra.New(l.Arena(), 1).Guard(0)
	if !l.Insert(g, 7) {
		t.Fatal("Insert(7) into an empty list failed")
	}
	_, hdr := l.lock(l.rawNext(l.head))
	done := make(chan bool)
	go func() { done <- l.Insert(g, 7) }()
	select {
	case inserted := <-done:
		unlock(hdr)
		if inserted {
			t.Fatal("a duplicate Insert(7) succeeded")
		}
	case <-time.After(2 * time.Second):
		unlock(hdr)
		<-done
		t.Fatal("a duplicate Insert(7) waited on the present node's lock")
	}
}

// TestValidateRejectsHeldLock: a linked node whose word shows the lock bit
// fails the quiescent check.
func TestValidateRejectsHeldLock(t *testing.T) {
	l := New(1)
	p := l.newNode(0, 7, l.tail)
	atomic.StoreUint64(&l.pool.MustGet(l.head).next, uint64(p))
	_, hdr := l.lock(p)
	if l.Validate() == nil {
		t.Fatal("Validate must reject a linked node whose lock is held")
	}
	unlock(hdr)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}
