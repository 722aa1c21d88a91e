package main

import (
	"slices"
	"sync"
	"time"
)

// Host-speed calibration.
//
// This host is a 2-vCPU guest whose CPUs change speed under it: a
// register-only loop timed in 40 ms slices swings between 0.4 and 0.8
// iterations/ns per worker, with fast (100 ms) and slow (minutes) components,
// and every workload swings with it — wall-clock runs of one binary read 1.8
// to 2.9 M ops/s on tree-update, a 36% quartile spread that no best-of-5
// fixes, because whole 25 s runs are slow. The interference is multiplicative
// and common to everything on the CPU, so the benchmark measures it and
// divides it out: the measured window alternates opSlice of workload with
// calSlice of calibration (both workers switch together, on a phase flag they
// already poll once per op), each workload slice is scaled by the mean of the
// host speeds measured right before and right after it, and every time metric
// is reported in reference time — the time the work would have taken on a
// host running the calibration kernels at their reference rates.
//
// Two kernels, because the host slows two kinds of work differently: the
// register-only loop loses up to half its speed to a busy sibling thread,
// dependent cache-missing loads follow the shared cache instead. The two
// trees (12.8 MB, every descent misses) blend them half and half; the
// cache-resident workloads run calALU alone, so no 16 MB chase flushes the
// cache they live in. README.md, "Why calibrated reference time", has the
// sizing data.
//
// What calibration must not divide out is the program's own CPU use. While
// the workers calibrate, the program is quiesced as far as the benchmark can
// make it — both workers are between two operations, nothing is in flight —
// but the Go runtime's GC workers, or a background goroutine a later change
// adds, can still take a P from a calibrating worker, and a kernel timed as
// one interval would read that as a slower host and credit the workload
// slices next to it. A kernel is therefore timed in sub-intervals of ≈40–75
// µs and runs at the rate of its *median* sub-interval: an interruption
// lengthens the sub-intervals it lands in and leaves the median alone. The
// share of calibration time the median does not account for is reported as
// bench.cal_disturbed_pct (3–10% on this host, whose CPUs flip between speed
// states: a tenth or so of the sub-intervals run 1.1–2× long). The blind
// spot that remains: a goroutine that holds a P for more than half of a
// worker's calibration slice moves the median itself and reads as a slow
// host for that slice; bench.host_speed_pct then falls while the wall-clock
// rate on the trial's log line stays put.
type calKind int

const (
	// calALU is calChunk dependent splitmix64 steps: register-only, no
	// memory traffic.
	calALU calKind = iota
	// calMem is calChunk dependent loads chasing one random cycle through
	// 16 MB: every load misses L2. Between them the two workers touch ≈7 MB
	// of it per calibration; the tree's hot upper levels (a few hundred KB)
	// are back in cache within the first per cent of the next workload slice.
	calMem
)

const (
	opSlice  = 40 * time.Millisecond
	calSlice = 8 * time.Millisecond

	calChunk = 256
	// treeMemShare is the share of a tree workload's reference time that
	// waits on cache-missing loads; the only other share is 0.
	treeMemShare = 0.5
)

// calSub is the length of one timed sub-interval in chunks: ≈40 µs of calALU
// and ≈75 µs of calMem at the reference rates, a hundred or so per slice.
var calSub = [...]int{calALU: 128, calMem: 4}

// refPerNs defines the reference host: kernel steps per nanosecond per
// worker, set to this host's quiet-time rates so that reference time ≈ wall
// time on a quiet run. The constants and the kernels are part of the metric
// definitions: changing either rescales every time metric and needs a new
// baseline. The kernels belong to the benchmark, so no change to the
// repository can speed them up; one that slows them is what the median rule
// and bench.cal_disturbed_pct above are for.
var refPerNs = [...]float64{calALU: 0.8, calMem: 0.0135}

// chase is calMem's cycle, built once per process, before any trial.
var chase = sync.OnceValue(func() []uint32 {
	const n = 1 << 22
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	s := uint64(n)
	for i := n - 1; i > 0; i-- {
		j := splitmix64(&s) % uint64(i+1)
		order[i], order[j] = order[j], order[i]
	}
	next := make([]uint32, n)
	for i, at := range order {
		next[at] = order[(i+1)%n]
	}
	return next
})

// calStep runs one chunk of the kernel.
func (w *worker) calStep(k calKind) {
	if k == calMem {
		next, at := chase(), w.calAt
		for i := 0; i < calChunk; i++ {
			at = next[at]
		}
		w.calAt = at
		return
	}
	var acc uint64
	for i := 0; i < calChunk; i++ {
		acc += splitmix64(&w.calRng)
	}
	w.calSink += acc
}

// slice is one workload slice of a worker's measured window, scaled by the
// calibrations on both sides of it.
type slice struct {
	ops    uint64
	opNs   int64
	latEnd int // samples of this slice end here in worker.lat (and acq/body/rel)
	speed  hostSpeed
}

// hostSpeed is one calibration: the rate each kernel ran at, relative to the
// reference host (1 = reference speed, 0.5 = half as fast). A kernel that did
// not run reads 0 and is never asked for.
type hostSpeed [2]float64

func (h hostSpeed) mean(o hostSpeed) hostSpeed {
	return hostSpeed{(h[calALU] + o[calALU]) / 2, (h[calMem] + o[calMem]) / 2}
}

// at blends the two kernels for a workload that spends memShare of its
// reference time waiting on cache-missing loads: time stretches by
// (1−m)/alu + m/mem, and the speed is the inverse of that stretch. calMem is
// capped at the reference rate: when the neighbours go quiet the 16 MB cycle
// fits the shared cache and the kernel runs up to 3× faster, a regime the
// tree — whose hot upper levels are cached already — gains little from
// (uncapped, two sizing runs in that regime read 23% low).
func (h hostSpeed) at(memShare float64) float64 {
	if memShare == 0 {
		return h[calALU]
	}
	return 1 / ((1-memShare)/h[calALU] + memShare/min(h[calMem], 1))
}

// until says when a kernel stops: at a deadline on the worker's own clock,
// or, inside the window, when the coordinator leaves the calibration phase.
type until struct {
	deadline int64
	c        *control
}

func (u until) reached() bool {
	if u.c != nil {
		return u.c.phase.Load() != phaseCalibrate
	}
	return now() >= u.deadline
}

// timeKernel runs kernel k until u (one sub-interval at least) and returns
// the rate of its median sub-interval relative to the reference host.
func (w *worker) timeKernel(k calKind, u until) float64 {
	durs := w.calDurs[:0]
	t0 := now()
	t := t0
	for first := true; first || !u.reached(); first = false {
		for i := 0; i < calSub[k]; i++ {
			w.calStep(k)
		}
		t1 := now()
		if len(durs) < cap(durs) {
			durs = append(durs, t1-t)
		}
		t = t1
	}
	slices.Sort(durs)
	median := quantile(durs, 0.5)
	w.calNs += t - t0
	w.calLostNs += max(t-t0-int64(len(durs))*median, 0)
	return float64(calSub[k]*calChunk) / float64(median) / refPerNs[k]
}

// calibrate measures the host's speed until u: calALU alone for a
// cache-resident workload, else calALU for half a calSlice on the worker's
// own clock and calMem for the rest.
func (w *worker) calibrate(u until) hostSpeed {
	var h hostSpeed
	if w.memShare == 0 {
		h[calALU] = w.timeKernel(calALU, u)
		return h
	}
	h[calALU] = w.timeKernel(calALU, until{deadline: now() + int64(calSlice/2)})
	h[calMem] = w.timeKernel(calMem, u)
	return h
}

// refTime converts a worker's window into reference time in place: every
// latency sample is scaled by its slice's host speed. It returns the ops of
// the workload slices with their reference and wall nanoseconds.
func (w *worker) refTime() (ops uint64, refNs, wallNs float64) {
	start := 0
	for _, s := range w.slices {
		speed := s.speed.at(w.memShare)
		ops += s.ops
		refNs += float64(s.opNs) * speed
		wallNs += float64(s.opNs)
		for _, v := range [][]int64{w.lat, w.acq, w.body, w.rel} {
			for i := start; i < min(s.latEnd, len(v)); i++ {
				v[i] = int64(float64(v[i])*speed + 0.5)
			}
		}
		start = s.latEnd
	}
	return ops, refNs, wallNs
}
