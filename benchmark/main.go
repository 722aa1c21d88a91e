// Command benchmark is the repository's gating benchmark: four closed-loop
// workloads driven through the public nbr package, six bounded end-to-end
// metrics per workload, and a per-layer ledger measured from outside the
// layers. BENCHMARK.json at the repository root names the metrics and bounds
// a change is held to; README.md in this directory defines every name.
//
//	go run ./benchmark                      every workload, every metric, as tables
//	go run ./benchmark -o out.json          the same, also as JSON
//	go run ./benchmark -selfcheck           two end-to-end sets, compared against the bounds
//	go run ./benchmark -smoke               the shape `go test ./benchmark` runs
//	bash benchmark/run.sh --workload tree-update --seed 7 --seconds 20 --trace 0
//
// The last form is the driver's contract: one workload, the end-to-end
// (--trace 0) or per-layer (--trace 1) metrics as one JSON object on the last
// line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

type header struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Workers    int     `json:"workers"`
	Trials     int     `json:"trials"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
}

func newHeader(seed uint64, sh shape) header {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return header{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Workers: workers, Trials: sh.trials,
		WarmupS: sh.warm.Seconds(), WindowS: sh.window.Seconds(),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d workers=%d (closed loop) trials=%d warmup=%gs window=%gs\n",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit, h.Seed, h.Workers, h.Trials, h.WarmupS, h.WindowS)
}

// workloadReport is one workload's part of the output document.
type workloadReport struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	// FailedTrials names every trial the oracle rejected.
	FailedTrials []string `json:"failed_trials,omitempty"`
}

func (r *workloadReport) count(trials []*trialResult) {
	for _, t := range trials {
		r.Attempted += t.attempted
		r.Failed += t.failedOps
		if !t.ok() {
			r.FailedTrials = append(r.FailedTrials, t.spec.label())
		}
	}
}

type report struct {
	Header    header            `json:"header"`
	Workloads []*workloadReport `json:"workloads"`
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 || len(w.FailedTrials) > 0 {
			return false
		}
	}
	return true
}

func (r *report) print(w io.Writer) {
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wr.Name, wr.Why)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-32s %14s %-8s %14s %14s %14s %3s\n", "end-to-end", "value", "unit", "median", "q1", "q3", "n")
			for _, d := range slices.Concat(endToEnd, ungated) {
				s := wr.EndToEnd[d.name]
				fmt.Fprintf(w, "  %-32s %14.6g %-8s %14.6g %14.6g %14.6g %3d\n", d.name, s.Value, s.Unit, s.Median, s.Q1, s.Q3, s.N)
			}
		}
		if wr.PerLayer != nil {
			fmt.Fprintf(w, "  %-32s %14s %-8s\n", "per-layer", "value", "unit")
			for _, d := range perLayer {
				s := wr.PerLayer[d.name]
				fmt.Fprintf(w, "  %-32s %14.6g %-8s\n", d.name, s.Value, s.Unit)
			}
		}
		for _, name := range wr.FailedTrials {
			fmt.Fprintf(w, "  FAILED VERIFICATION: %s\n", name)
		}
	}
}

// layerStats runs one workload's layer passes and shapes them for a report.
func layerStats(wl *workload, seed uint64, sh shape, wr *workloadReport, spans io.Writer, log io.Writer) error {
	l, err := runLayers(wl, seed, sh, log)
	if err != nil {
		return err
	}
	wr.count(l.all())
	vals := perLayerStats(l)
	wr.PerLayer = make(map[string]stat, len(perLayer))
	for _, d := range perLayer {
		v := vals[d.name]
		wr.PerLayer[d.name] = stat{Value: v, Unit: d.unit, Median: v, Q1: v, Q3: v, N: 1}
	}
	tr := l.traced.trace
	fmt.Fprintf(log, "  traced %s: %d ops, %d sampled, %d spans kept, %d dropped, clock read %.1f ns\n",
		wl.name, tr.ops, tr.sampledOps, tr.spans, tr.dropped, clockCost())
	if spans != nil {
		return tr.tr.writeSpans(spans, l.traced.spec.label())
	}
	return nil
}

// measure produces a report: end-to-end trials when e2e, layer passes when
// layers, for the given workloads.
func measure(wls []*workload, seed uint64, sh shape, e2e, layers bool, spans io.Writer, log io.Writer) (*report, error) {
	rep := &report{Header: newHeader(seed, sh)}
	for _, wl := range wls {
		rep.Workloads = append(rep.Workloads, &workloadReport{Name: wl.name, Why: wl.why})
	}
	if e2e {
		trials, err := runEndToEnd(wls, seed, sh, log)
		if err != nil {
			return nil, err
		}
		for i, wl := range wls {
			rep.Workloads[i].count(trials[wl.name])
			rep.Workloads[i].EndToEnd = endToEndStats(trials[wl.name])
		}
	}
	if layers {
		for i, wl := range wls {
			if err := layerStats(wl, seed, sh, rep.Workloads[i], spans, log); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// resultLine is the driver contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(rep *report, trace bool) resultLine {
	wr := rep.Workloads[0]
	defs, vals := endToEnd, wr.EndToEnd
	if trace {
		defs, vals = perLayer, wr.PerLayer
	}
	line := resultLine{Correct: rep.correct(), Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = resultValue{vals[d.name].Value, d.unit}
	}
	return line
}

// selfcheck measures two full end-to-end sets back to back and holds their
// difference, per metric and workload, against the metric's bound.
func selfcheck(wls []*workload, seed uint64, sh shape, out io.Writer) (bool, error) {
	var sets [2]*report
	for i := range sets {
		fmt.Fprintf(out, "selfcheck: set %d\n", i+1)
		rep, err := measure(wls, seed, sh, true, false, nil, out)
		if err != nil {
			return false, err
		}
		if !rep.correct() {
			rep.print(out)
			return false, nil
		}
		sets[i] = rep
	}
	ok := true
	fmt.Fprintf(out, "\n%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for w := range wls {
		for _, d := range endToEnd {
			a, b := sets[0].Workloads[w].EndToEnd[d.name].Value, sets[1].Workloads[w].EndToEnd[d.name].Value
			diff := (b - a) / a
			verdict := ""
			if diff > d.bound || diff < -d.bound {
				ok, verdict = false, "  EXCEEDS"
			}
			fmt.Fprintf(out, "%-16s %-24s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", wls[w].name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and end with the driver's result line (default: all, as tables)")
		seed     = flag.Uint64("seed", 1, "seed of the generated key streams")
		seconds  = flag.Float64("seconds", 0, "with -workload: total measured seconds of the run, split evenly over its trials")
		trace    = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics")
		smoke    = flag.Bool("smoke", false, "1 trial, 300 ms windows: checks that everything runs and verifies, measures nothing")
		check    = flag.Bool("selfcheck", false, "run two end-to-end sets and compare them against the bounds")
		outPath  = flag.String("o", "", "also write the report as JSON to this file")
		spanPath = flag.String("trace-out", "", "write the traced pass's in-memory spans to this file as JSON lines")
	)
	flag.Parse()

	if runtime.NumCPU() < workers {
		fmt.Fprintf(os.Stderr, "benchmark: %d CPU: the workloads are defined for %d closed-loop workers on %d CPUs; refusing to produce incomparable numbers\n",
			runtime.NumCPU(), workers, workers)
		os.Exit(2)
	}
	// Pool shard counts, the default MaxThreads and GC parallelism all follow
	// GOMAXPROCS; pin it to the worker count so a bigger host measures the
	// same program.
	runtime.GOMAXPROCS(workers)

	sh := gateShape
	if *smoke {
		sh = smokeShape
	}
	wls := allWorkloads()
	driver := *name != ""
	if driver {
		wl := findWorkload(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		wls = []*workload{wl}
		if *seconds > 0 {
			slots := sh.trials
			if *trace == 1 {
				slots = len(sh.layerSchedule())
			}
			sh.window = time.Duration(*seconds / float64(slots) * float64(time.Second))
		}
	}

	out := os.Stdout
	if *check {
		ok, err := selfcheck(wls, *seed, sh, out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var spans io.Writer
	if *spanPath != "" {
		f, err := os.Create(*spanPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		spans = f
	}
	newHeader(*seed, sh).print(out)
	rep, err := measure(wls, *seed, sh, !driver || *trace == 0, !driver || *trace == 1, spans, out)
	if err != nil {
		fatal(err)
	}
	rep.print(out)
	if *outPath != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(doc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if driver {
		line, err := json.Marshal(driverLine(rep, *trace == 1))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
