package lazylist

import (
	"sync"
	"sync/atomic"
	"testing"
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

// TestLockExcludes: two goroutines bump a plain counter under one node's
// lock bit; a lost update (or the race detector) shows a broken lock.
func TestLockExcludes(t *testing.T) {
	l := New(2)
	const each = 40000
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, hdr := l.lock(l.head)
				counter++
				unlock(hdr)
			}
		}()
	}
	wg.Wait()
	if counter != 2*each {
		t.Fatalf("counter = %d, want %d: the lock lost updates", counter, 2*each)
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
