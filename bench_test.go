// The top-level benchmarks regenerate every table and figure of
// the paper at testing.B scale: each BenchmarkFigX mirrors one exhibit
// (DESIGN.md §5 maps them), running the same workload cells as cmd/nbrbench
// but with host-scaled key ranges and short trials so `go test -bench=.`
// finishes in minutes. Throughput is reported as the custom metric Mops/s
// (higher is better) and memory experiments additionally report peak-MB.
//
// For paper-shaped sweeps (full key ranges, thread sweeps, 5s trials) use:
//
//	go run ./cmd/nbrbench -experiment fig3a -full -duration 5s -trials 3
package nbr_test

import (
	"slices"
	"testing"
	"time"

	"nbr/internal/bench"
	"nbr/internal/catalog"
)

const (
	benchThreads  = 4
	benchDuration = 200 * time.Millisecond
	treeRange     = 50_000 // host-scaled stand-in for the paper's 2M
)

// benchSchemes is the reduced comparison set used in the testing.B harness
// (the full set runs via cmd/nbrbench).
var benchSchemes = []string{"none", "debra", "hp", "nbr", "nbr+"}

func runCell(b *testing.B, w bench.Workload) {
	b.Helper()
	var mops, peak float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		mops += r.Mops
		peak = max(peak, r.PeakMB)
	}
	b.ReportMetric(mops/float64(b.N), "Mops/s")
	b.ReportMetric(peak, "peak-MB")
}

// benchPresets runs the cells of the named nbrbench presets (bench.Experiment
// .Cells — the grids are stated there, once) as sub-benchmarks, thinned to
// testing.B scale: one thread count, short trials, benchSchemes only, key
// ranges above 20K at a quarter of nbrbench's host-scaled ones (2M → 50K,
// 20M → 100K), and — unless allMixes — only the 50i-50d mix.
func benchPresets(b *testing.B, allMixes bool, presets ...string) {
	o := bench.Options{Threads: []int{benchThreads}, Duration: benchDuration, Cfg: catalog.DefaultSchemeConfig()}
	for _, name := range presets {
		e, ok := bench.Lookup(name)
		if !ok {
			b.Fatalf("no preset %q", name)
		}
		for _, c := range e.Cells(o) {
			if !slices.Contains(benchSchemes, c.Scheme) || !allMixes && c.InsPct != 50 {
				continue
			}
			if c.KeyRange > 20_000 {
				c.KeyRange /= 4
			}
			b.Run(c.Name, func(b *testing.B) { runCell(b, c.Workload) })
		}
	}
}

// BenchmarkFig3a is E1 on the DGT tree (paper key range 2M, host-scaled).
func BenchmarkFig3a(b *testing.B) { benchPresets(b, true, "fig3a") }

// BenchmarkFig3b is E1 on the lazy list (key range 20K).
func BenchmarkFig3b(b *testing.B) { benchPresets(b, true, "fig3b") }

// BenchmarkFig4a is E3 on the ABTree at low contention (2M, scaled) and
// high contention (200); Table 1 rules the pointer-based schemes out.
func BenchmarkFig4a(b *testing.B) { benchPresets(b, true, "fig4a") }

// BenchmarkFig4b is E4: the Harris-Michael restart study.
func BenchmarkFig4b(b *testing.B) { benchPresets(b, true, "fig4b") }

// BenchmarkFig4c is E2 with a stalled thread: peak-MB is the paper's metric.
func BenchmarkFig4c(b *testing.B) { benchPresets(b, true, "fig4c") }

// BenchmarkFig4d is E2 without the stalled thread.
func BenchmarkFig4d(b *testing.B) { benchPresets(b, true, "fig4d") }

// BenchmarkFig5 covers the appendix DGT size sweep (20M scaled / 20K).
func BenchmarkFig5(b *testing.B) { benchPresets(b, false, "fig5a", "fig5b") }

// BenchmarkFig6 covers the appendix lazy-list size sweep (2K / 200).
func BenchmarkFig6(b *testing.B) { benchPresets(b, false, "fig6a", "fig6b") }

// BenchmarkFig7 covers the appendix Harris-list size sweep (200/2K/20K).
func BenchmarkFig7(b *testing.B) { benchPresets(b, false, "fig7a", "fig7b", "fig7c") }

// BenchmarkFig8 covers the appendix ABTree size sweep (20M scaled / 2M
// scaled).
func BenchmarkFig8(b *testing.B) { benchPresets(b, false, "fig8a", "fig8b") }

// BenchmarkAblateSignals quantifies §5's O(n²)→O(n) signal reduction.
func BenchmarkAblateSignals(b *testing.B) {
	for _, s := range []string{"nbr", "nbr+"} {
		b.Run(s, func(b *testing.B) {
			w := bench.Workload{DS: "dgt", Scheme: s, Threads: benchThreads,
				KeyRange: treeRange, InsPct: 50, DelPct: 50,
				Duration: benchDuration, Cfg: catalog.DefaultSchemeConfig()}
			var signalsPerKop float64
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(w)
				if err != nil {
					b.Fatal(err)
				}
				signalsPerKop += float64(r.Stats.Signals) / float64(r.Ops) * 1000
			}
			b.ReportMetric(signalsPerKop/float64(b.N), "signals/kop")
		})
	}
}
