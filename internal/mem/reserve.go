package mem

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
)

// A reservation is unmapped by its Pool's cleanup, after a collection, and
// the collector paces itself by the Go heap, where a Pool is a few hundred
// bytes: a loop that drops pools faster than its heap grows (FuzzSetOps
// builds thousands of structures a second) runs out of address space first.
// So reserve collects once the live reservations would pass reserveBytes,
// and waits for the cleanups until the new one fits under it: while every
// reservation above the cap is a dropped pool, the live ones never pass it.
// Only when the wait ends with them still over — the pools are reachable,
// not garbage — does the next collection move out to twice what survived,
// so holding them does not cost every NewPool a collection.
const reserveBytes = 1 << 44 // 16 TB, an eighth of a 47-bit address space

// cleanupWait bounds how long reserve waits after a collection for the
// cleanups, which unmap on their own goroutine, to bring a new reservation
// under reserveBytes.
const cleanupWait = time.Second

// liveReserved is the bytes of reservations not yet unmapped; nextCollect is
// where reserve collects next when that is above reserveBytes.
var liveReserved, nextCollect atomic.Int64

// reserve maps size bytes of PROT_NONE address space for a pool.
func reserve(size uintptr) []byte {
	if liveReserved.Load()+int64(size) > max(nextCollect.Load(), reserveBytes) {
		runtime.GC()
		fits := func() bool { return liveReserved.Load()+int64(size) <= reserveBytes }
		for deadline := time.Now().Add(cleanupWait); !fits() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if fits() {
			nextCollect.Store(0)
		} else {
			nextCollect.Store(2 * liveReserved.Load())
		}
	}
	region, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("mem: reserving %d bytes of index space: %v", size, err))
	}
	liveReserved.Add(int64(size))
	return region
}

// unreserve unmaps a pool's reservation; it is the Pool's cleanup.
func unreserve(region []byte) {
	_ = syscall.Munmap(region) // a cleanup has no caller to report to
	liveReserved.Add(-int64(len(region)))
}
