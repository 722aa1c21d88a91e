package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nbr"
)

// epoch anchors the monotonic clock every timestamp in the benchmark reads.
var epoch = time.Now()

// now returns monotonic nanoseconds since process start (one vDSO read; half
// the cost of time.Now, which also reads the wall clock).
func now() int64 { return int64(time.Since(epoch)) }

// pass selects how a trial is instrumented.
type pass int

const (
	passUntraced pass = iota // public API, recorder off: the only source of end-to-end numbers
	passObserved             // public API, Runtime.Observe(true), outside lease timestamps
	passTraced               // internal twin with wrapped guards and arena (traced.go)
)

func (p pass) String() string { return [...]string{"untraced", "observed", "traced"}[p] }

// trialSpec is one fresh-runtime trial: timed set-up, warm-up, measured
// window, release, Drain, verify.
type trialSpec struct {
	wl     *workload
	scheme string // wl.scheme, or the swapped-in baseline
	pass   pass
	seed   uint64
	index  int // trial number within the run; selects the key streams
	warm   time.Duration
	window time.Duration
	// setups is how many reference seconds of set-up repetitions to time
	// before the trial proper (see runTrial).
	setups float64
}

func (s trialSpec) label() string {
	return fmt.Sprintf("%s/%s/%s#%d", s.wl.name, s.scheme, s.pass, s.index)
}

// Trial phases, published by the coordinator and polled by workers once per
// operation.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseCalibrate // inside the window: both workers run the calibration kernel
	phaseStop
)

// control is the coordinator's side of a trial.
type control struct {
	phase   atomic.Int32
	readyWG sync.WaitGroup
	start   chan struct{}
}

// gauges are the whole-system readings workers sample between operations.
type gauges struct {
	garbage   func() uint64 // Stats().Garbage()
	liveBytes func() int64  // MemStats().LiveBytes
}

// worker is one closed-loop client. Only its own goroutine touches it until
// the trial's WaitGroup releases it to the coordinator.
type worker struct {
	rng      uint64
	phase    int32
	readied  bool
	inWindow bool // the first workload slice of the window has begun
	gz       *gauges

	ops        uint64 // operations attempted since the trial started (prefill excluded)
	sliceBase  uint64 // ops at the start of the open workload slice
	sliceStart int64
	slices     []slice // the measured window, one entry per workload slice

	memShare         float64
	calRng, calSink  uint64
	calAt            uint32
	calDurs          []int64   // sub-interval scratch of timeKernel
	calNs, calLostNs int64     // kernel time, and the part of it the median sub-interval does not explain
	calBefore        hostSpeed // the calibration that closed the previous slice (or preceded the window)
	setupDone        int64     // this worker's set-up ended here…
	setupSpeed       float64   // …at this host speed (blended for the workload)

	lat []int64 // op latency samples of the window, ns

	garbagePeak    uint64 // window
	garbagePeakAll uint64 // whole trial; the oracle holds it against the bound
	livePeak       int64

	prefilled int64
	tallies   [2]tally

	// Session state shared with the once-built lease closure, and the
	// observed pass's outside timestamps.
	key, kind      uint64
	tBody, tDone   int64
	acq, body, rel []int64

	failedOps uint64
	failure   string

	_ [64]byte // keep neighbouring workers off this one's last cache line
}

// advance follows the coordinator's phase; it returns false once the trial
// is over. The measured window is per worker: a workload slice runs from the
// moment this worker observes phaseMeasure to the moment it observes
// phaseCalibrate, and the calibration that follows runs right here, between
// two operations. The window opens on a calibration, so every slice has one
// on each side.
func (w *worker) advance(c *control) bool {
	ph := c.phase.Load()
	if ph == w.phase {
		return true
	}
	for {
		switch ph {
		case phaseMeasure:
			if !w.inWindow {
				w.inWindow = true
				w.lat = w.lat[:0]
				w.acq, w.body, w.rel = w.acq[:0], w.body[:0], w.rel[:0]
				w.garbagePeak, w.livePeak = 0, 0
				w.sampleGarbage()
				w.sampleLive()
			}
			w.phase = ph
			w.sliceBase, w.sliceStart = w.ops, now()
			return true
		case phaseCalibrate:
			sl := slice{ops: w.ops - w.sliceBase, opNs: now() - w.sliceStart, latEnd: len(w.lat)}
			after := w.calibrate(until{c: c})
			if w.phase == phaseMeasure { // else this is the opening calibration, or the flip to phaseMeasure was missed: no slice to close
				sl.speed = w.calBefore.mean(after)
				w.slices = append(w.slices, sl)
			}
			w.calBefore = after
			w.phase = ph
			ph = c.phase.Load()
		default:
			w.phase = ph
			return false
		}
	}
}

// ready reports this worker set up — timing the end of its set-up and the
// host speed right after it — and blocks until every worker is.
func (w *worker) ready(c *control) {
	w.setupDone = now()
	w.setupSpeed = w.calibrate(until{deadline: w.setupDone + int64(calSlice)}).at(w.memShare)
	w.readied = true
	c.readyWG.Done()
	<-c.start
}

func (w *worker) sampleGarbage() {
	v := w.gz.garbage()
	if v > w.garbagePeak {
		w.garbagePeak = v
	}
	if v > w.garbagePeakAll {
		w.garbagePeakAll = v
	}
}

func (w *worker) sampleLive() {
	if v := w.gz.liveBytes(); v > w.livePeak {
		w.livePeak = v
	}
}

// fail records the first error of this worker; every op it would still have
// run counts as failed through the trial-level accounting in runTrial.
func (w *worker) fail(format string, args ...any) {
	w.failedOps++
	if w.failure == "" {
		w.failure = fmt.Sprintf(format, args...)
	}
}

// prefillSteady inserts this worker's share of the workload's prefill.
func prefillSteady[G any](w *worker, wl *workload, set setAPI[G], g G) {
	for share := int64(wl.prefill / workers); w.prefilled < share; {
		if set.Insert(g, splitmix64(&w.rng)%wl.keys+1) {
			w.prefilled++
		}
	}
}

// steadyLoop is the closed loop of the three steady workloads: one Set call
// per op under a long-lived lease.
func steadyLoop[G any](w *worker, c *control, wl *workload, set setAPI[G], g G) {
	mask := wl.latEvery - 1
	for w.advance(c) {
		r := splitmix64(&w.rng)
		if w.ops&mask == 0 {
			t0 := now()
			steadyOp(wl, set, g, r, &w.tallies[0])
			w.lat = append(w.lat, now()-t0)
		} else {
			steadyOp(wl, set, g, r, &w.tallies[0])
		}
		w.ops++
		if w.ops&255 == 0 {
			w.sampleGarbage()
			if w.ops&4095 == 0 {
				w.sampleLive()
			}
		}
	}
}

// sessionLoop is the closed loop of session-churn: op = one session, opened
// by session() (Runtime.With on the public path). The worker's key and kind
// are published in w for the once-built session closure, so the loop itself
// allocates nothing per op.
func sessionLoop(w *worker, c *control, wl *workload, observed bool, session func() error) {
	for w.advance(c) {
		w.key = splitmix64(&w.rng)%wl.keys + 1
		w.kind = w.ops % 4
		t0 := now()
		err := session()
		t1 := now()
		if err != nil {
			w.fail("session: %v", err)
		}
		w.lat = append(w.lat, t1-t0)
		if observed {
			w.acq = append(w.acq, w.tBody-t0)
			w.body = append(w.body, w.tDone-w.tBody)
			w.rel = append(w.rel, t1-w.tDone)
		}
		w.ops++
		w.sampleGarbage()
		w.sampleLive()
	}
}

// sut is a system under test, built fresh per trial: the public runtime or
// the traced twin. work is one worker's whole life on its own goroutine —
// lease, prefill, w.ready(c), loop, release.
type sut struct {
	work   func(w *worker, c *control)
	oracle oracleView
	sets   []setView
	gz     gauges
	// window, when set, tells the system the measured window opened or
	// closed (the tracer arms itself on it).
	window func(open bool)
	// collect copies pass-specific evidence into the result once the
	// workers have stopped and before the oracle drains.
	collect func(r *trialResult)
}

// trialResult is everything one trial measured.
type trialResult struct {
	spec trialSpec

	setups    []float64 // every set-up repetition, in reference seconds
	ops       uint64    // completed in the window's workload slices, both workers
	opsPerS   float64   // Σ per-worker ops ÷ per-worker reference time
	rawOpsS   float64   // the same over wall time, for the log only
	hostSpeed float64   // mean host speed over the workload slices (1 = reference host)
	// calDisturbed is the share of the workers' calibration time that the
	// median sub-interval does not explain (calibrate.go).
	calDisturbed float64
	attempted    uint64 // every op issued, warm-up included
	failedOps    uint64
	lat          []int64 // sorted window samples, ns
	garbagePk    uint64
	livePkMB     float64
	failures     []string // worker and oracle failures; empty means verified

	stats nbr.Stats    // at the end of the window, before Drain
	mem   nbr.MemStats // same instant

	// Observed pass only.
	goMallocs      uint64 // runtime.MemStats.Mallocs across the window
	acq, body, rel []int64
	debug          *debugDoc

	// Traced pass only.
	trace *traceSummary
}

func (r *trialResult) ok() bool { return len(r.failures) == 0 }

// launched is a system whose workers are set up and parked at the start
// line.
type launched struct {
	s      *sut
	c      *control
	ws     []worker
	done   sync.WaitGroup
	setupS float64 // NewRuntime → every worker ready, in reference seconds
}

// launch builds the system and starts its workers; it returns once all of
// them are set up.
func launch(spec trialSpec) (*launched, error) {
	l := &launched{c: &control{start: make(chan struct{})}, ws: make([]worker, workers)}
	if spec.wl.memShare > 0 {
		chase() // built before the clock starts: set-up time is the program's, not the benchmark's
	}
	t0 := now()
	build := buildPublic
	if spec.pass == passTraced {
		build = buildTwin
	}
	var err error
	if l.s, err = build(spec); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.label(), err)
	}
	l.c.readyWG.Add(workers)
	l.done.Add(workers)
	for i := range l.ws {
		w := &l.ws[i]
		w.gz = &l.s.gz
		w.rng = streamSeed(spec.seed, spec.index, i)
		w.memShare, w.calRng, w.calAt = spec.wl.memShare, w.rng, uint32(i)<<20
		w.calDurs = make([]int64, 0, 1024)
		go func() {
			defer l.done.Done()
			defer func() {
				// A panic inside the system under test fails the trial
				// instead of killing the run; a worker that died during
				// set-up must still release the coordinator.
				if p := recover(); p != nil {
					w.fail("panic: %v", p)
					if !w.readied {
						l.c.readyWG.Done()
					}
				}
			}()
			l.s.work(w, l.c)
		}()
	}
	l.c.readyWG.Wait()
	var setupEnd int64
	var setupSpeed float64
	for i := range l.ws {
		setupEnd = max(setupEnd, l.ws[i].setupDone)
		setupSpeed += l.ws[i].setupSpeed / workers
	}
	l.setupS = float64(setupEnd-t0) * setupSpeed / 1e9
	return l, nil
}

// discard releases a launched system without measuring anything: the workers
// see phaseStop before their first op, release their leases and exit.
func (l *launched) discard() {
	l.c.phase.Store(phaseStop)
	close(l.c.start)
	l.done.Wait()
}

// Set-up is cheap next to a window and noisy (fresh slabs page-fault, the GC
// cuts in, one 8 ms calibration can be off), so every trial repeats it on
// throwaway systems until spec.setups seconds of set-ups were timed or
// maxSetupReps made, and the run reports the median of all repetitions of all
// trials: at the gate's 0.5 s, ≈55 on the trees, ≈10 on list-read, 160 on
// session-churn (0.4 ms each).
const maxSetupReps = 32

// runTrial builds the system, runs the phases and puts the result through
// the oracle. Only a build error is returned; everything after it lands in
// trialResult.failures, so a bad trial is reported by name, never dropped.
func runTrial(spec trialSpec) (*trialResult, error) {
	res := &trialResult{spec: spec}
	for spent := 0.0; ; {
		l, err := launch(spec)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, l.setupS)
		spent += l.setupS
		if spent >= spec.setups || len(res.setups) == maxSetupReps {
			runLaunched(spec, l, res)
			return res, nil
		}
		l.discard()
	}
}

// runLaunched runs warm-up, window, release, Drain and verify on a launched
// system.
func runLaunched(spec trialSpec, l *launched, res *trialResult) {
	s, c, ws := l.s, l.c, l.ws
	// Sample buffers are sized for the window up front, so the loops never
	// grow one (lease.go_allocs_per_session counts the program's mallocs).
	for i := range ws {
		ws[i].lat = make([]int64, 0, 1<<19)
		if spec.pass == passObserved && spec.wl.session {
			ws[i].acq, ws[i].body, ws[i].rel = make([]int64, 0, 1<<19), make([]int64, 0, 1<<19), make([]int64, 0, 1<<19)
		}
	}
	close(c.start)

	time.Sleep(spec.warm)
	var m0, m1 runtime.MemStats
	if spec.pass == passObserved {
		runtime.ReadMemStats(&m0)
	}
	if s.window != nil {
		s.window(true)
	}
	// The window opens on a calibration, alternates workload and calibration
	// slices and ends on a calibration, so every workload slice has the host
	// speed on both sides of it.
	c.phase.Store(phaseCalibrate)
	time.Sleep(calSlice)
	for end := now() + int64(spec.window); now() < end; {
		c.phase.Store(phaseMeasure)
		time.Sleep(opSlice)
		c.phase.Store(phaseCalibrate)
		time.Sleep(calSlice)
	}
	c.phase.Store(phaseStop)
	if s.window != nil {
		s.window(false)
	}
	l.done.Wait()
	if spec.pass == passObserved {
		runtime.ReadMemStats(&m1)
		res.goMallocs = m1.Mallocs - m0.Mallocs
	}

	var peakAll uint64
	var calNs, calLostNs int64
	for i := range ws {
		w := &ws[i]
		calNs, calLostNs = calNs+w.calNs, calLostNs+w.calLostNs
		ops, refNs, wallNs := w.refTime()
		res.ops += ops
		res.attempted += w.ops
		res.failedOps += w.failedOps
		if refNs > 0 {
			res.opsPerS += float64(ops) / refNs * 1e9
			res.rawOpsS += float64(ops) / wallNs * 1e9
			res.hostSpeed += refNs / wallNs / workers
		}
		res.lat = append(res.lat, w.lat...)
		res.acq = append(res.acq, w.acq...)
		res.body = append(res.body, w.body...)
		res.rel = append(res.rel, w.rel...)
		res.garbagePk = max(res.garbagePk, w.garbagePeak)
		peakAll = max(peakAll, w.garbagePeakAll)
		res.livePkMB = max(res.livePkMB, float64(w.livePeak)/1e6)
		if w.failure != "" {
			res.failures = append(res.failures, fmt.Sprintf("worker %d: %s", i, w.failure))
		}
	}
	slices.Sort(res.lat)
	res.calDisturbed = float64(calLostNs) / float64(calNs)
	res.stats = s.oracle.Stats()
	s.collect(res)
	res.failures = append(res.failures, verify(s.oracle, s.sets, ws, peakAll)...)
	if !res.ok() {
		// Nothing a trial measured can be trusted once its verification
		// failed: all of its ops count as failed.
		res.failedOps = res.attempted
	}
}

// buildPublic builds the system every end-to-end number comes from: a fresh
// nbr.Runtime driven through nothing but the public package.
func buildPublic(spec trialSpec) (*sut, error) {
	wl := spec.wl
	opts := wl.opts
	opts.Scheme = spec.scheme
	rt, err := nbr.NewRuntime(opts)
	if err != nil {
		return nil, err
	}
	sets := make([]*nbr.Set, len(wl.structures))
	for i, name := range wl.structures {
		if sets[i], err = rt.NewSet(name); err != nil {
			return nil, err
		}
	}
	observed := spec.pass == passObserved
	rt.Observe(observed)

	s := &sut{oracle: rt}
	for _, set := range sets {
		s.sets = append(s.sets, set)
	}
	s.gz = gauges{
		garbage:   func() uint64 { return rt.Stats().Garbage() },
		liveBytes: func() int64 { return rt.MemStats().LiveBytes },
	}
	s.collect = func(r *trialResult) {
		r.mem = rt.MemStats()
		if observed {
			r.debug, err = scrapeDebug(rt)
			if err != nil {
				r.failures = append(r.failures, "Runtime.Debug(): "+err.Error())
			}
		}
	}
	if wl.session {
		s.work = func(w *worker, c *control) {
			// Built once per worker: the loop publishes key and kind in w,
			// so a session costs no benchmark-side allocation.
			fn := func(l *nbr.Lease) error {
				if observed {
					w.tBody = now()
				}
				sessionSteps[*nbr.Lease](sets[0], sets[1], l, w.key, w.kind, &w.tallies)
				if observed {
					w.tDone = now()
				}
				return nil
			}
			ctx := context.Background()
			session := func() error { return rt.With(ctx, fn) }
			// The first session builds the scheme; it belongs to set-up.
			w.key = 1
			if err := session(); err != nil {
				w.fail("first session: %v", err)
			}
			w.ready(c)
			sessionLoop(w, c, wl, observed, session)
		}
		return s, nil
	}
	s.work = func(w *worker, c *control) {
		l, err := rt.Acquire()
		if err != nil {
			w.fail("Acquire: %v", err)
			w.ready(c)
			return
		}
		defer l.Release()
		prefillSteady[*nbr.Lease](w, wl, sets[0], l)
		w.ready(c)
		steadyLoop[*nbr.Lease](w, c, wl, sets[0], l)
	}
	return s, nil
}
