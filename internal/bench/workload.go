// Package bench is the experiment harness: it drives timed workloads over
// the schemes and structures of internal/catalog, measures the shared-runtime
// cells on the shipped nbr.Runtime, writes and diffs the perf snapshots, and
// reproduces every figure of the evaluation (see DESIGN.md §5 for the index).
package bench

import (
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
	// Prefill is the initial set size; -1 selects KeyRange/2 (the paper's
	// protocol).
	Prefill int64
	// Stall runs one extra thread that begins an operation and sleeps for
	// the whole measurement (E2's delayed-thread scenario).
	Stall bool
	// YieldEvery makes each worker yield the processor every N operations.
	// When goroutines outnumber GOMAXPROCS the Go scheduler otherwise runs
	// each worker in ~10ms slices, which serializes the fine-grained
	// interleaving the paper's 192-hardware-thread machine provides (and
	// NBR+'s passive RGP detection depends on). 0 selects the default: 16
	// when oversubscribed, off otherwise. Negative disables.
	YieldEvery int
	Cfg        catalog.SchemeConfig
	Seed       uint64
}

// Result is one measured cell.
type Result struct {
	Workload
	Ops       uint64
	Elapsed   time.Duration
	Mops      float64 // million operations per second
	PeakBytes int64   // peak live allocator bytes (the E2 metric)
	PeakLive  int64   // peak live records
	Stats     smr.Stats
	AllocOps  uint64 // shared-free-list lock acquisitions (burst contention)
	// Bound is the scheme's declared garbage bound (smr.Unbounded for the
	// epoch schemes and leaky) and GarbagePeak the largest Stats().Garbage()
	// the sampler observed during the run — together they make the bound a
	// measured contract in every cell, not a doc comment.
	Bound       int
	GarbagePeak uint64
	// Sampled operation latency (every latencySample-th op): P1 is about
	// latency as well as throughput, and reclamation bursts surface here.
	LatP50, LatP99, LatMax time.Duration
	// Series is the live-bytes timeline (one sample per 5ms tick): the
	// sawtooth of bag growth and reclamation bursts, E2's figure over time.
	Series []int64
	// Retire handoff-size distribution, read from the scheme's own
	// accounting (smr.Stats.BatchHist): every Retire counts as a handoff of
	// 1, every RetireBatch as one handoff of its length. Shows how much of
	// the retire traffic the RetireBatch seam actually amortizes.
	Batches                      uint64
	BatchP50, BatchP99, BatchMax int64
	BatchHist                    []uint64
}

// latencySample is the per-thread operation sampling period.
const latencySample = 32

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
	if w.Duration <= 0 {
		w.Duration = time.Second
	}
	if w.Prefill < 0 {
		w.Prefill = int64(w.KeyRange / 2)
	}
	if w.Seed == 0 {
		w.Seed = 0x9e3779b97f4a7c15
	}
	if w.YieldEvery == 0 && w.Threads > runtime.GOMAXPROCS(0) {
		w.YieldEvery = 16
	}
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

	var (
		stop     atomic.Bool
		started  sync.WaitGroup
		done     sync.WaitGroup
		opCounts = make([]uint64, w.Threads)
		lats     = make([]hist.Histogram, w.Threads)
	)

	// Peak-memory sampler (the E2 metric), live-bytes timeline, and the
	// garbage-bound probe: Stats().Garbage() is raced against the scheme's
	// declared GarbageBound, so a bound violation that is only visible
	// mid-run (an oversized splice transiting a bag) still gets caught.
	var peakBytes, peakLive atomic.Int64
	var peakGarbage atomic.Uint64
	var series []int64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for !stop.Load() {
			st := inst.MemStats()
			if st.LiveBytes > peakBytes.Load() {
				peakBytes.Store(st.LiveBytes)
			}
			if st.Live > peakLive.Load() {
				peakLive.Store(st.Live)
			}
			if g := sch.Stats().Garbage(); g > peakGarbage.Load() {
				peakGarbage.Store(g)
			}
			series = append(series, st.LiveBytes)
			<-tick.C
		}
	}()

	// Optional stalled thread: begins an operation mid-read-phase and
	// sleeps until the measurement ends, exactly like E2's sleeping thread.
	var stallWG sync.WaitGroup
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
					}
				}()
				g.EndRead()
			}()
			g.EndOp()
		}()
	}

	for tid := 0; tid < w.Threads; tid++ {
		started.Add(1)
		done.Add(1)
		go func(tid int) {
			defer done.Done()
			g := sch.Guard(tid)
			rng := w.Seed + uint64(tid)*0x100000001b3
			started.Done()
			var ops uint64
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
				if w.YieldEvery > 0 && ops%uint64(w.YieldEvery) == 0 {
					runtime.Gosched()
				}
			}
			opCounts[tid] = ops
		}(tid)
	}

	started.Wait()
	begin := time.Now()
	time.Sleep(w.Duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin)
	stallWG.Wait()
	<-samplerDone

	// Final memory sample (bags may have peaked right at the end).
	st := inst.MemStats()
	if st.LiveBytes > peakBytes.Load() {
		peakBytes.Store(st.LiveBytes)
	}
	if st.Live > peakLive.Load() {
		peakLive.Store(st.Live)
	}

	res := Result{
		Workload:  w,
		Elapsed:   elapsed,
		PeakBytes: peakBytes.Load(),
		PeakLive:  peakLive.Load(),
		Stats:     sch.Stats(),
		AllocOps:  st.GlobalOps,
		Series:    series, // sampler goroutine has exited; safe to hand off
		Bound:     sch.GarbageBound(),
	}
	res.GarbagePeak = peakGarbage.Load()
	if g := res.Stats.Garbage(); g > res.GarbagePeak {
		res.GarbagePeak = g // bags may have peaked right at the end
	}
	for _, c := range opCounts {
		res.Ops += c
	}
	res.Mops = float64(res.Ops) / elapsed.Seconds() / 1e6

	var lat hist.Histogram
	for i := range lats {
		lat.Merge(&lats[i])
	}
	res.LatP50 = time.Duration(lat.Quantile(0.50))
	res.LatP99 = time.Duration(lat.Quantile(0.99))
	res.LatMax = time.Duration(lat.Max())

	res.Batches = res.Stats.RetireCalls()
	res.BatchP50 = res.Stats.BatchQuantile(0.50)
	res.BatchP99 = res.Stats.BatchQuantile(0.99)
	res.BatchMax = res.Stats.BatchMax()
	res.BatchHist = trimBuckets(res.Stats.BatchHist)
	return res, nil
}

// BoundExceeded reports whether the sampled garbage peak violated the
// scheme's declared bound. Always false for unbounded schemes.
func (r Result) BoundExceeded() bool {
	return r.Bound != smr.Unbounded && r.GarbagePeak > uint64(r.Bound)
}

// trimBuckets drops the empty tail of a bucket array for compact reports.
func trimBuckets(b [smr.BatchBuckets]uint64) []uint64 {
	n := len(b)
	for n > 0 && b[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	copy(out, b[:n])
	return out
}

// prefill populates the set to the target size using all worker threads,
// inserting uniformly random keys as the paper's harness does.
func prefill(inst catalog.Instance, sch smr.Scheme, w Workload) {
	if w.Prefill == 0 {
		return
	}
	var inserted atomic.Int64
	var wg sync.WaitGroup
	workers := w.Threads
	if workers > 8 {
		workers = 8 // prefill is setup, not measurement; cap the fan-out
	}
	for i := 0; i < workers; i++ {
		// Stride the prefill workers across the full thread-id range rather
		// than packing them into 0..workers-1: together with the hashed
		// tid→shard map in internal/mem this spreads the prefill burst's
		// allocation and flush traffic over the free-list shards instead of
		// convoying it on the ids (and shards) the first few workers own.
		tid := i * w.Threads / workers
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			rng := w.Seed ^ (uint64(tid+1) * 0x9e3779b97f4a7c15)
			for inserted.Load() < w.Prefill {
				key := splitmix64(&rng)%w.KeyRange + 1
				if inst.Set.Insert(g, key) {
					inserted.Add(1)
				}
			}
		}(tid)
	}
	wg.Wait()
}
