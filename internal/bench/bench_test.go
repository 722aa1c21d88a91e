package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"nbr/internal/catalog"
)

func TestRunRejectsIncompatible(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    Workload
	}{
		{"table1", Workload{DS: "hmlist-norestart", Scheme: "nbr+", Threads: 1, KeyRange: 100}},
		{"keyrange1", Workload{DS: "lazylist", Scheme: "nbr+", Threads: 1, KeyRange: 1}},
		{"threads0", Workload{DS: "lazylist", Scheme: "nbr+", Threads: 0, KeyRange: 100}},
		{"threads-1", Workload{DS: "lazylist", Scheme: "nbr+", Threads: -1, KeyRange: 100}},
		{"ins-10", Workload{DS: "lazylist", Scheme: "nbr+", Threads: 1, KeyRange: 100, InsPct: -10, DelPct: 50}},
		{"del-10", Workload{DS: "lazylist", Scheme: "nbr+", Threads: 1, KeyRange: 100, InsPct: 50, DelPct: -10}},
		{"mix130", Workload{DS: "lazylist", Scheme: "nbr+", Threads: 1, KeyRange: 100, InsPct: 80, DelPct: 50}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.w.Duration = 10 * time.Millisecond
			if _, err := Run(tc.w); err == nil {
				t.Fatalf("Run accepted %+v", tc.w)
			}
		})
	}
}

// TestExperimentRejectsZeroTrials: a cell averaged over no trials is a NaN
// table, so the runner refuses it before measuring anything.
func TestExperimentRejectsZeroTrials(t *testing.T) {
	e, ok := Lookup("fig3a")
	if !ok {
		t.Fatal("fig3a preset missing")
	}
	for _, trials := range []int{0, -1} {
		o := Options{Threads: []int{1}, Duration: time.Millisecond, Trials: trials, Cfg: catalog.DefaultSchemeConfig(), Out: io.Discard}
		if err := e.Run(o); err == nil {
			t.Fatalf("fig3a ran with %d trials", trials)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	r, err := Run(Workload{
		DS: "lazylist", Scheme: "nbr+", Threads: 2, KeyRange: 256,
		InsPct: 50, DelPct: 50, Duration: 50 * time.Millisecond,
		Cfg: catalog.DefaultSchemeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Mops <= 0 {
		t.Fatalf("no throughput measured: %+v", r)
	}
	if r.PeakMB <= 0 {
		t.Fatal("peak memory not sampled")
	}
}

func TestRunWithStalledThread(t *testing.T) {
	for _, scheme := range []string{"debra", "nbr+"} {
		r, err := Run(Workload{
			DS: "lazylist", Scheme: scheme, Threads: 2, KeyRange: 256,
			InsPct: 50, DelPct: 50, Duration: 60 * time.Millisecond,
			Stall: true,
			Cfg:   catalog.SchemeConfig{BagSize: 64, LoFraction: 0.5, ScanFreq: 4, Threshold: 32},
		})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if scheme == "nbr+" {
			bound := uint64(3 * (64 + 3*4) * 4) // generous multiple of the lemma bound
			if g := r.Stats.Garbage(); g > bound {
				t.Fatalf("nbr+ garbage %d above bound %d under stall", g, bound)
			}
		}
	}
}

func TestRunPrefillsToHalfRange(t *testing.T) {
	inst, err := catalog.NewDS("lazylist", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = inst
	r, err := Run(Workload{
		DS: "lazylist", Scheme: "none", Threads: 1, KeyRange: 200,
		InsPct: 0, DelPct: 0, Duration: 20 * time.Millisecond,
		Cfg: catalog.DefaultSchemeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Contains-only workload cannot change the size; peak live records must
	// be at least the prefill (sentinels + 100 keys).
	if r.PeakLive < 100 {
		t.Fatalf("prefill missing: peak live %d", r.PeakLive)
	}
}

func TestExperimentRegistry(t *testing.T) {
	if len(Experiments) < 15 {
		t.Fatalf("expected every figure to have a preset, got %d", len(Experiments))
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Name == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete preset %+v", e)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate preset %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d",
		"fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b"} {
		if _, ok := Lookup(want); !ok {
			t.Fatalf("missing preset %s", want)
		}
	}
}

func TestThroughputFigureOutput(t *testing.T) {
	var buf bytes.Buffer
	o := Options{
		Threads:  []int{1, 2},
		Duration: 25 * time.Millisecond,
		Trials:   1,
		Cfg:      catalog.DefaultSchemeConfig(),
		Out:      &buf,
	}
	err := throughputFigure(o, grid("lazylist", 200, updateMix, []string{"none", "nbr+"}))
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lazylist", "50i-50d", "none", "nbr+", "threads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestScaleRange(t *testing.T) {
	o := Options{}
	if scaleRange(o, 2_000_000) != 200_000 || scaleRange(o, 20_000_000) != 400_000 {
		t.Fatal("host scaling wrong")
	}
	if scaleRange(o, 20_000) != 20_000 {
		t.Fatal("list ranges must not be scaled")
	}
	o.Full = true
	if scaleRange(o, 2_000_000) != 2_000_000 {
		t.Fatal("-full must restore paper ranges")
	}
}

func TestPrintTable1(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"lazylist", "abtree", "hmlist-norestart", "no*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q", want)
		}
	}
}
