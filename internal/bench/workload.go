// Package bench is the experiment harness: it drives timed workloads over
// the schemes and structures of internal/catalog, measures the shared-runtime
// cells on the shipped nbr.Runtime, writes and diffs the perf snapshots, and
// reproduces every figure of the evaluation (see DESIGN.md §5 for the index).
package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/hist"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Workload is one benchmark cell: a data structure × scheme × mix ×
// thread-count configuration, mirroring one point in a paper figure.
type Workload struct {
	DS       string
	Scheme   string
	Threads  int
	KeyRange uint64
	InsPct   int // percentage of inserts
	DelPct   int // percentage of deletes; the rest are searches
	Duration time.Duration
	// Stall runs one extra thread that begins an operation and sleeps for
	// the whole measurement (E2's delayed-thread scenario).
	Stall bool
	Cfg   catalog.SchemeConfig
	Seed  uint64
}

// Result is one measured cell: the snapshot point the run produces (Run fills
// it directly — throughput, peak MB, the scheme's counters, latency and
// batch-size quantiles, the declared garbage bound against the sampled peak,
// which makes the bound a measured contract in every cell, not a doc comment)
// plus what only the figures and tests read.
type Result struct {
	WorkloadPoint
	Ops      uint64
	PeakLive int64 // peak live records
	Stats    smr.Stats
	// Sampled operation latency (every latencySample-th op): P1 is about
	// latency as well as throughput, and reclamation bursts surface here.
	LatP50, LatP99, LatMax time.Duration
	// Series is the live-bytes timeline (one sample per 5ms tick): the
	// sawtooth of bag growth and reclamation bursts, E2's figure over time.
	Series []int64
	// StallNeutralized reports that the Stall thread woke up to a
	// neutralization signal (NBR) rather than resuming as if nothing happened.
	StallNeutralized bool
}

// latencySample is the per-thread operation sampling period.
const latencySample = 32

// yieldEvery is how many operations an oversubscribed worker runs between
// yields of the processor. When goroutines outnumber GOMAXPROCS the Go
// scheduler otherwise runs each worker in ~10ms slices, which serializes the
// fine-grained interleaving the paper's 192-hardware-thread machine provides
// (and NBR+'s passive RGP detection depends on).
const yieldEvery = 16

// splitmix64 is the per-worker key generator (cheap, race-free).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes one workload cell and returns its measurements.
func Run(w Workload) (Result, error) {
	if err := catalog.Check(w.DS, w.Scheme); err != nil {
		return Result{}, fmt.Errorf("bench: %w", err)
	}
	if w.KeyRange < 2 {
		return Result{}, fmt.Errorf("bench: key range %d too small", w.KeyRange)
	}
	if w.Threads < 1 {
		return Result{}, fmt.Errorf("bench: thread count %d, want at least 1", w.Threads)
	}
	if w.InsPct < 0 || w.DelPct < 0 || w.InsPct+w.DelPct > 100 {
		return Result{}, fmt.Errorf("bench: mix %di-%dd, want non-negative percentages summing to at most 100", w.InsPct, w.DelPct)
	}
	if w.Duration <= 0 {
		w.Duration = time.Second
	}
	w.Seed = cmp.Or(w.Seed, 0x9e3779b97f4a7c15)
	yield := w.Threads > runtime.GOMAXPROCS(0)
	total := w.Threads
	if w.Stall {
		total++
	}
	inst, err := catalog.NewDS(w.DS, total)
	if err != nil {
		return Result{}, err
	}
	sch, err := catalog.NewSchemeFor(w.Scheme, inst.Arena, total, w.Cfg, inst.Req)
	if err != nil {
		return Result{}, err
	}

	prefill(inst, sch, w)

	var stop atomic.Bool
	lats := make([]hist.Histogram, w.Threads)

	// Peak-memory sampler (the E2 metric), live-bytes timeline, and the
	// garbage-bound probe: Stats().Garbage() is raced against the scheme's
	// declared GarbageBound, so a bound violation that is only visible
	// mid-run (an oversized splice transiting a bag) still gets caught.
	var peakBytes, peakLive int64
	var series []int64
	garbagePeak := watchGarbage(5*time.Millisecond, func() uint64 {
		st := inst.MemStats()
		peakBytes, peakLive = max(peakBytes, st.LiveBytes), max(peakLive, st.Live)
		series = append(series, st.LiveBytes)
		return sch.Stats().Garbage()
	})

	// Optional stalled thread: begins an operation mid-read-phase and
	// sleeps until the measurement ends, exactly like E2's sleeping thread.
	var stallWG sync.WaitGroup
	var stallNeutralized bool
	if w.Stall {
		stallWG.Add(1)
		go func() {
			defer stallWG.Done()
			g := sch.Guard(w.Threads)
			g.BeginOp()
			g.BeginRead()
			for !stop.Load() {
				time.Sleep(time.Millisecond)
			}
			// On wake the thread may be neutralized (NBR) — absorb it.
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, ok := r.(sigsim.Neutralized); !ok {
							panic(r)
						}
						stallNeutralized = true
					}
				}()
				g.EndRead()
			}()
			g.EndOp()
		}()
	}

	ops, elapsed := churn(w.Threads, w.Duration, &stop, func(tid int) (ops uint64) {
		g := sch.Guard(tid)
		rng := w.Seed + uint64(tid)*0x100000001b3
		lat := &lats[tid]
		for !stop.Load() {
			r := splitmix64(&rng)
			key := r%w.KeyRange + 1
			roll := int((r >> 32) % 100)
			sampled := ops%latencySample == 0
			var t0 time.Time
			if sampled {
				t0 = time.Now()
			}
			switch {
			case roll < w.InsPct:
				inst.Set.Insert(g, key)
			case roll < w.InsPct+w.DelPct:
				inst.Set.Delete(g, key)
			default:
				inst.Set.Contains(g, key)
			}
			if sampled {
				lat.Record(int64(time.Since(t0)))
			}
			ops++
			if yield && ops%yieldEvery == 0 {
				runtime.Gosched()
			}
		}
		return ops
	})
	stallWG.Wait()
	peak := garbagePeak() // the sampler has exited: its variables are ours

	var lat hist.Histogram
	for i := range lats {
		lat.Merge(&lats[i])
	}
	st, handoffs := sch.Stats(), sch.Handoffs()
	res := Result{
		Ops: ops, PeakLive: peakLive, Stats: st, Series: series, StallNeutralized: stallNeutralized,
		LatP50: time.Duration(lat.Quantile(0.50)), LatP99: time.Duration(lat.Quantile(0.99)),
		LatMax: time.Duration(lat.Max()),
	}
	res.WorkloadPoint = WorkloadPoint{
		DS: w.DS, Scheme: w.Scheme, Threads: w.Threads, KeyRange: w.KeyRange,
		Mops:    float64(res.Ops) / elapsed.Seconds() / 1e6,
		PeakMB:  float64(peakBytes) / (1 << 20),
		Signals: st.Signals, Freed: st.Freed, Garbage: st.Garbage(),
		P50us: float64(res.LatP50) / 1e3, P99us: float64(res.LatP99) / 1e3,
		Batches: handoffs.Count(), BatchP50: handoffs.Quantile(0.50), BatchP99: handoffs.Quantile(0.99),
		BatchMax: handoffs.Max(), BatchHist: handoffs.Counts(),
		BoundContract: BoundContract{Bound: sch.GarbageBound(), GarbagePeak: peak},
	}
	// Every cell is also a safety run: the structure must come out of the
	// churn well-formed, and at this quiescent point Freed > Retired is a
	// double-free-grade accounting bug, never a benign state.
	if err := inst.Set.Validate(); err != nil {
		return res, fmt.Errorf("bench: %s/%s invalid after the run: %w", w.DS, w.Scheme, err)
	}
	if st.Invalid() {
		return res, fmt.Errorf("bench: %s/%s freed %d > retired %d", w.DS, w.Scheme, st.Freed, st.Retired)
	}
	return res, nil
}

// parallel runs body on n goroutines, one per thread id, and waits for them.
func parallel(n int, body func(id int)) {
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(id)
		}()
	}
	wg.Wait()
}

// churn is the timed worker loop of every duration-driven cell: body runs on
// n goroutines until stop is raised, d after the last of them has started,
// and returns its operation count. churn returns the total and the measured
// window.
func churn(n int, d time.Duration, stop *atomic.Bool, body func(id int) uint64) (ops uint64, elapsed time.Duration) {
	counts := make([]uint64, n)
	var started, done sync.WaitGroup
	started.Add(n)
	done.Add(n)
	for id := 0; id < n; id++ {
		go func() {
			defer done.Done()
			started.Done()
			counts[id] = body(id)
		}()
	}
	started.Wait()
	begin := time.Now()
	time.Sleep(d)
	stop.Store(true)
	done.Wait()
	elapsed = time.Since(begin)
	for _, c := range counts {
		ops += c
	}
	return ops, elapsed
}

// watchGarbage is the one sampler behind every driver: it calls garbage — the
// scheme's retired-but-unfreed count, read by a closure free to sample
// whatever else the cell tracks on the same tick — once per period until the
// returned stop is called. It is ticker-driven: a Gosched spin would burn a
// core inside the measured window and deflate Mops. stop takes one last
// sample after the sampler has exited (bags may peak right at the end) and
// returns the largest garbage seen.
func watchGarbage(period time.Duration, garbage func() uint64) (stop func() uint64) {
	var peak uint64
	sample := func() { peak = max(peak, garbage()) }
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-tick.C:
			case <-quit:
				return
			}
		}
	}()
	return func() uint64 {
		close(quit)
		<-done
		sample()
		return peak
	}
}

// prefill populates the set to half the key range (the paper's protocol)
// using all worker threads, inserting uniformly random keys as the paper's
// harness does.
func prefill(inst catalog.Instance, sch smr.Scheme, w Workload) {
	target := int64(w.KeyRange / 2)
	var inserted atomic.Int64
	workers := min(w.Threads, 8) // prefill is setup, not measurement; cap the fan-out
	parallel(workers, func(i int) {
		// Stride the prefill workers across the full thread-id range rather
		// than packing them into 0..workers-1: together with the hashed
		// tid→shard map in internal/mem this spreads the prefill burst's
		// allocation and flush traffic over the free-list shards instead of
		// convoying it on the ids (and shards) the first few workers own.
		tid := i * w.Threads / workers
		g := sch.Guard(tid)
		rng := w.Seed ^ (uint64(tid+1) * 0x9e3779b97f4a7c15)
		for inserted.Load() < target {
			key := splitmix64(&rng)%w.KeyRange + 1
			if inst.Set.Insert(g, key) {
				inserted.Add(1)
			}
		}
	})
}
