package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// swapScheme is the baseline a workload's scheme is swapped for in
// scheme.swap_debra_ratio: the paper's claim is that NBR+ matches or beats
// DEBRA on the tree.
const swapScheme = "debra"

// shape is how much measuring one run does. The gate's shape is fixed by
// BENCHMARK.json (5 trials of run_seconds/5); -smoke shrinks everything so
// the package's test can afford a full pass.
type shape struct {
	trials int // end-to-end trials per workload
	refs   int // untraced reference trials in the layer passes
	swaps  int // swapped-scheme trials in the layer passes
	warm   time.Duration
	window time.Duration
	setups float64 // reference seconds of set-up repetitions per trial
	probe  time.Duration
}

var (
	gateShape  = shape{trials: 5, refs: 2, swaps: 2, warm: time.Second, window: 4 * time.Second, setups: 0.5, probe: 200 * time.Millisecond}
	smokeShape = shape{trials: 1, refs: 1, swaps: 1, warm: 100 * time.Millisecond, window: 300 * time.Millisecond, probe: 20 * time.Millisecond}
)

// layerSlot is one trial of the layer passes.
type layerSlot struct {
	scheme string // "" = the workload's own
	pass   pass
}

// layerSchedule interleaves the reference, swapped, traced and observed
// trials (U D T D O U at the gate's shape) so slow drift of the host hits
// every kind alike.
func (sh shape) layerSchedule() []layerSlot {
	ref, swap := layerSlot{pass: passUntraced}, layerSlot{scheme: swapScheme, pass: passUntraced}
	passes := []layerSlot{{pass: passTraced}, {pass: passObserved}}
	sched := []layerSlot{ref}
	for i := 0; i < max(sh.swaps, len(passes)); i++ {
		if i < sh.swaps {
			sched = append(sched, swap)
		}
		if i < len(passes) {
			sched = append(sched, passes[i])
		}
	}
	for i := 1; i < sh.refs; i++ {
		sched = append(sched, ref)
	}
	return sched
}

// runEndToEnd runs sh.trials untraced public-API trials of every workload,
// interleaved round-robin (A B C D A B C D …) so no workload owns a quiet or
// a noisy stretch of the host.
func runEndToEnd(wls []*workload, seed uint64, sh shape, log io.Writer) (map[string][]*trialResult, error) {
	out := make(map[string][]*trialResult, len(wls))
	for t := 0; t < sh.trials; t++ {
		for _, wl := range wls {
			res, err := runTrial(trialSpec{
				wl: wl, scheme: wl.scheme, pass: passUntraced,
				seed: seed, index: t, warm: sh.warm, window: sh.window, setups: sh.setups,
			})
			if err != nil {
				return nil, err
			}
			logTrial(log, res)
			out[wl.name] = append(out[wl.name], res)
		}
	}
	return out, nil
}

// layerIndexBase keeps the layer passes' key streams apart from the
// end-to-end trials' of the same seed.
const layerIndexBase = 16

// runLayers runs one workload's layer passes and unit probes.
func runLayers(wl *workload, seed uint64, sh shape, log io.Writer) (*layerRun, error) {
	l := &layerRun{}
	for i, slot := range sh.layerSchedule() {
		scheme := slot.scheme
		if scheme == "" {
			scheme = wl.scheme
		}
		res, err := runTrial(trialSpec{
			wl: wl, scheme: scheme, pass: slot.pass,
			seed: seed, index: layerIndexBase + i, warm: sh.warm, window: sh.window,
		})
		if err != nil {
			return nil, err
		}
		logTrial(log, res)
		switch {
		case slot.pass == passTraced:
			l.traced = res
		case slot.pass == passObserved:
			l.observed = res
		case slot.scheme == swapScheme:
			l.swaps = append(l.swaps, res)
		default:
			l.refs = append(l.refs, res)
		}
	}
	l.probes = runProbes(sh.probe)
	return l, nil
}

// logTrial prints one line per trial and names every check a failed trial
// violated.
func logTrial(w io.Writer, r *trialResult) {
	verdict := "ok"
	if !r.ok() {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "  %-34s %10.0f ops/s (wall %10.0f, host %3.0f%%, cal lost %4.1f%%)  p50 %7.2f us  p95 %7.2f us  p99 %7.2f us  garbage %5d  live %7.3f MB  setup %.6f s  samples %d  %s\n",
		r.spec.label(), r.opsPerS, r.rawOpsS, 100*r.hostSpeed, 100*r.calDisturbed, usQuantile(r.lat, 0.5), usQuantile(r.lat, 0.95), usQuantile(r.lat, 0.99),
		r.garbagePk, r.livePkMB, quantile(slices.Sorted(slices.Values(r.setups)), 0.5), len(r.lat), verdict)
	for _, f := range r.failures {
		fmt.Fprintf(w, "    %s: %s\n", r.spec.label(), f)
	}
}
