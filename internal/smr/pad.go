package smr

import "sync/atomic"

// Pad64 is an atomic uint64 padded to a cache line, used for per-thread
// announcement slots (epochs, eras, hazard pointers, reservations) so that
// single-writer announcements never false-share.
type Pad64 struct {
	atomic.Uint64
	_ [56]byte
}

// Counter is a per-guard statistics counter: written by the owning thread,
// read concurrently by Stats aggregation.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Store(c.v.Load() + 1) } // owner-only writer

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Store(c.v.Load() + n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Watermark is a monotone atomic maximum: concurrent Raise calls keep the
// largest value ever offered. Era schemes use it for their pinned-set
// accounting — GarbageBound must be monotone non-decreasing (see Scheme), so
// the pinned term is a high-water mark, not the instantaneous pinned count.
type Watermark struct {
	v atomic.Uint64
}

// Raise lifts the watermark to v if v is higher.
func (w *Watermark) Raise(v uint64) {
	for {
		old := w.v.Load()
		if v <= old || w.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Load returns the current watermark.
func (w *Watermark) Load() uint64 { return w.v.Load() }
