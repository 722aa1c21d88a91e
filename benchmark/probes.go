package main

import (
	"time"

	"nbr/internal/mem"
	"nbr/internal/sigsim"
)

// Unit probes: direct loops on a layer's public functions that no wrapper
// can interpose (the scheme calls sigsim and the structures call Pool.Alloc
// on concrete types). One thread, ~200 ms each, best of the rounds it fits.

// probeCalls is the length of one probe round; round functions loop it
// inline so no closure call sits between the clock reads and the probed
// function.
const probeCalls = 4096

// probeNs returns the cost of one probed call in nanoseconds: the fastest of
// the rounds that fit in budget.
func probeNs(budget time.Duration, round func()) float64 {
	best := float64(0)
	for end := now() + int64(budget); now() < end; {
		t0 := now()
		round()
		if d := float64(now()-t0) / probeCalls; best == 0 || d < best {
			best = d
		}
	}
	return best
}

type probeResults struct {
	pollNs, phaseCycleNs, signalAllNs, allocFreeNs float64
}

func runProbes(budget time.Duration) probeResults {
	var r probeResults

	// Two signalable slots, the configuration of every workload here; slot 1
	// never polls, so posts to it just accumulate.
	group := sigsim.NewGroup(workers, sigsim.Config{})
	r.pollNs = probeNs(budget, func() {
		for i := 0; i < probeCalls; i++ {
			group.Poll(0)
		}
	})
	r.phaseCycleNs = probeNs(budget, func() {
		for i := 0; i < probeCalls; i++ {
			group.SetRestartable(0)
			group.ClearRestartable(0)
		}
	})
	r.signalAllNs = probeNs(budget, func() {
		for i := 0; i < probeCalls; i++ {
			group.SignalAll(0)
		}
	})

	pool := mem.NewPool[[4]uint64](mem.Config{MaxThreads: 1})
	r.allocFreeNs = probeNs(budget, func() {
		for i := 0; i < probeCalls; i++ {
			p, _ := pool.Alloc(0)
			pool.Free(0, p)
		}
	})
	return r
}
