package nbr

import (
	"testing"
	"time"
)

// TestReleaseUnwatchedSkipsWatchdog: with no LeaseTimeout and no SetDeadline
// a lease carries no reap timer, so its session arms and stops nothing. A
// lease that did get a deadline has its timer stopped by Release, so the
// deadline never fires on a slot that went back voluntarily.
func TestReleaseUnwatchedSkipsWatchdog(t *testing.T) {
	rt, err := NewRuntime(RuntimeOptions{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.NewSet("lazylist"); err != nil {
		t.Fatal(err)
	}

	l, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if l.reap != nil {
		t.Fatal("lease on a runtime with LeaseTimeout=0 carries a reap timer")
	}
	l.Release()

	armed, err := rt.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	armed.SetDeadline(time.Now().Add(20 * time.Millisecond))
	armed.Release()
	time.Sleep(60 * time.Millisecond)
	if snap := rt.Snapshot(0); snap.ReapedLeases != 0 || snap.RevokedReleases != 0 {
		t.Fatalf("a lease released before its deadline was reaped: ReapedLeases=%d RevokedReleases=%d", snap.ReapedLeases, snap.RevokedReleases)
	}
}
