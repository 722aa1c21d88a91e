package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json, the contract the driver
// holds this package to.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmokeEmitsEveryBenchmarkJSONMetric runs the -smoke shape in process
// and holds the result lines the driver would read against BENCHMARK.json,
// so tier-1 breaks in the change that breaks the benchmark.
func TestSmokeEmitsEveryBenchmarkJSONMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	// The file and the tables in metrics.go / workload.go are one definition.
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d end-to-end / %d per-layer metrics exceed the contract's 16 / 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	sameDefs := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (bounded && g.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark defines %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: name %q or unit %q outside the contract's alphabet", kind, i, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: %q listed twice", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	sameDefs("end_to_end", bj.EndToEnd, endToEnd, true)
	sameDefs("per_layer", bj.PerLayer, perLayer, false)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload[%d]: BENCHMARK.json has %q (%q), the benchmark defines %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if want := time.Duration(gateShape.trials) * gateShape.window; time.Duration(bj.RunSeconds)*time.Second != want {
		t.Errorf("run_seconds %d, but the gate's shape measures %v per run", bj.RunSeconds, want)
	}
	if per := time.Duration(bj.RunSeconds) * time.Second / time.Duration(len(gateShape.layerSchedule())); per < 3*time.Second {
		t.Errorf("--trace 1 splits run_seconds into %v windows, under the 3 s floor", per)
	}

	if runtime.NumCPU() < workers {
		t.Skipf("%d CPU: the workloads need %d", runtime.NumCPU(), workers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))

	rep, err := measure(allWorkloads(), 1, smokeShape, true, true, nil, testLog{t})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Errorf("verification failed: %+v", rep.Workloads)
	}
	for _, wr := range rep.Workloads {
		// The names the issue fixed, which later issues refer to: all are
		// reported with the end-to-end metrics and all are in BENCHMARK.json,
		// the two that no bound of the contract fits in its ledger
		// (metrics.go says why).
		for _, name := range []string{"ops_per_s", "op_p50_us", "op_p99_us", "garbage_peak_records", "live_peak_mb", "failed_ops_pct", "setup_s"} {
			if s, ok := wr.EndToEnd[name]; !ok || s.Unit == "" {
				t.Errorf("%s: end-to-end metric %s is not reported", wr.Name, name)
			}
			listed := bj.EndToEnd
			if name == opP99.name || name == failedOpsPct.name {
				listed = bj.PerLayer
			}
			if !slices.ContainsFunc(listed, func(m jsonMetric) bool { return m.Name == name }) {
				t.Errorf("BENCHMARK.json does not list %s", name)
			}
		}
		one := &report{Workloads: []*workloadReport{wr}}
		for trace, defs := range [][]jsonMetric{bj.EndToEnd, bj.PerLayer} {
			// Round-trip through the JSON the driver parses.
			doc, err := json.Marshal(driverLine(one, trace == 1))
			if err != nil {
				t.Fatal(err)
			}
			var line resultLine
			if err := json.Unmarshal(doc, &line); err != nil {
				t.Fatal(err)
			}
			if line.Attempted < 1 || len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: attempted %d, %d metrics, want %d", wr.Name, trace, line.Attempted, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s not emitted", wr.Name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s trace=%d: %s has unit %q, want %q", wr.Name, trace, d.Name, v.Unit, d.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%d: %s = %v", wr.Name, trace, d.Name, v.Value)
				case trace == 0 && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", wr.Name, d.Name, v.Value)
				}
			}
		}
	}
}

// testLog sends the per-trial lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}
