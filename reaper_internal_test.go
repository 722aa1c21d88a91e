package nbr

import (
	"context"
	"testing"
	"time"
)

// TestReleaseUnwatchedSkipsWatchdog: with no LeaseTimeout and no SetDeadline
// a lease was never registered with the watchdog, so its release must not
// take watchMu — a whole session completes while the test holds the lock. A
// lease that did register still unregisters on release.
func TestReleaseUnwatchedSkipsWatchdog(t *testing.T) {
	rt, err := NewRuntime(RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}

	rt.watchMu.Lock()
	done := make(chan error, 1)
	go func() {
		done <- rt.With(context.Background(), func(*Lease) error { return nil })
	}()
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		err = context.DeadlineExceeded
	}
	rt.watchMu.Unlock()
	if err != nil {
		t.Fatalf("session on a runtime with no armed watchdog waited on watchMu: %v", err)
	}

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	l.SetDeadline(time.Now().Add(time.Hour))
	l.Release()
	rt.watchMu.Lock()
	n := len(rt.watched)
	rt.watchMu.Unlock()
	if n != 0 {
		t.Fatalf("%d deadlines still registered after the watched lease was released", n)
	}
}
