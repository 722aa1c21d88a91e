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
// So reserve collects, and waits for the cleanups, once the live
// reservations would pass twice what survived its last collection, and at
// least reserveBytes.
const reserveBytes = 1 << 44 // 16 TB, an eighth of a 47-bit address space

// liveReserved is the bytes of reservations not yet unmapped; nextCollect is
// where reserve collects next.
var liveReserved, nextCollect atomic.Int64

// reserve maps size bytes of PROT_NONE address space for a pool.
func reserve(size uintptr) []byte {
	if liveReserved.Load()+int64(size) > max(nextCollect.Load(), reserveBytes) {
		runtime.GC()
		for last, i := int64(-1), 0; i < 100 && liveReserved.Load() != last; i++ {
			last = liveReserved.Load() // the cleanups are still unmapping
			time.Sleep(time.Millisecond)
		}
		nextCollect.Store(2 * liveReserved.Load())
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
