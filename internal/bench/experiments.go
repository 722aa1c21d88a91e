package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"nbr/internal/catalog"
)

// Options are the host-dependent knobs shared by all experiment presets.
type Options struct {
	// Threads is the thread-count sweep (the paper sweeps 24…252 on 192
	// hardware threads; the default scales to this host, keeping the
	// oversubscribed regime).
	Threads []int
	// Duration is the per-trial measurement time (paper: 5s).
	Duration time.Duration
	// Trials averages each cell over this many runs (paper: 3).
	Trials int
	// Full selects the paper's full key ranges (2M/20M) instead of the
	// host-scaled defaults.
	Full bool
	// Cfg carries the scheme knobs (bag sizes, signal costs, …).
	Cfg catalog.SchemeConfig
	Out io.Writer
}

// mix is an insert/delete percentage pair; the remainder are searches.
type mix struct{ ins, del int }

func (m mix) String() string { return fmt.Sprintf("%di-%dd", m.ins, m.del) }

var paperMixes = []mix{{50, 50}, {25, 25}, {5, 5}}

// stdSchemes is the paper's E1 comparison set (plus base NBR).
var stdSchemes = []string{"none", "qsbr", "rcu", "debra", "ibr", "hp", "nbr", "nbr+"}

// abtreeSchemes is the E3 set (Table 1 rules pointer-based schemes out).
var abtreeSchemes = []string{"none", "qsbr", "rcu", "debra", "nbr", "nbr+"}

// scaleRange maps the paper's key ranges onto this host unless Full is set:
// prefilling 10M records and measuring on one core adds minutes per cell
// without changing who wins (DESIGN.md §2).
func scaleRange(o Options, paper uint64) uint64 {
	if o.Full {
		return paper
	}
	switch {
	case paper >= 20_000_000:
		return 400_000
	case paper >= 2_000_000:
		return 200_000
	default:
		return paper
	}
}

// Experiment is one runnable preset reproducing a paper exhibit.
type Experiment struct {
	Name string
	Desc string
	Run  func(o Options) error
}

// Experiments lists every preset, in paper order.
var Experiments = []Experiment{
	{"fig3a", "E1 throughput: DGT tree, key range 2M, three mixes", func(o Options) error {
		return throughputFigure(o, "dgt", 2_000_000, paperMixes, stdSchemes)
	}},
	{"fig3b", "E1 throughput: lazy list, key range 20K, three mixes", func(o Options) error {
		return throughputFigure(o, "lazylist", 20_000, paperMixes, stdSchemes)
	}},
	{"fig4a", "E3 throughput: ABTree, 50i-50d, key ranges 2M and 200", func(o Options) error {
		if err := throughputFigure(o, "abtree", 2_000_000, []mix{{50, 50}}, abtreeSchemes); err != nil {
			return err
		}
		return throughputFigure(o, "abtree", 200, []mix{{50, 50}}, abtreeSchemes)
	}},
	{"fig4b", "E4 throughput: Harris-Michael list restart study, 50i-50d, ranges 20K and 200", fig4b},
	{"fig4c", "E2 peak memory with one stalled thread (DGT, 50i-50d, 2M)", func(o Options) error {
		return memoryFigure(o, true)
	}},
	{"fig4d", "E2 peak memory with no stalled thread (DGT, 50i-50d, 2M)", func(o Options) error {
		return memoryFigure(o, false)
	}},
	{"fig5a", "Appendix throughput: DGT, key range 20M, three mixes", func(o Options) error {
		return throughputFigure(o, "dgt", 20_000_000, paperMixes, stdSchemes)
	}},
	{"fig5b", "Appendix throughput: DGT, key range 20K, three mixes", func(o Options) error {
		return throughputFigure(o, "dgt", 20_000, paperMixes, stdSchemes)
	}},
	{"fig6a", "Appendix throughput: lazy list, key range 2K, three mixes", func(o Options) error {
		return throughputFigure(o, "lazylist", 2_000, paperMixes, stdSchemes)
	}},
	{"fig6b", "Appendix throughput: lazy list, key range 200, three mixes", func(o Options) error {
		return throughputFigure(o, "lazylist", 200, paperMixes, stdSchemes)
	}},
	{"fig7a", "Appendix throughput: Harris list, key range 200, three mixes", func(o Options) error {
		return throughputFigure(o, "harris", 200, paperMixes, stdSchemes)
	}},
	{"fig7b", "Appendix throughput: Harris list, key range 2K, three mixes", func(o Options) error {
		return throughputFigure(o, "harris", 2_000, paperMixes, stdSchemes)
	}},
	{"fig7c", "Appendix throughput: Harris list, key range 20K, three mixes", func(o Options) error {
		return throughputFigure(o, "harris", 20_000, paperMixes, stdSchemes)
	}},
	{"fig8a", "Appendix throughput: ABTree, key range 20M, three mixes", func(o Options) error {
		return throughputFigure(o, "abtree", 20_000_000, paperMixes, abtreeSchemes)
	}},
	{"fig8b", "Appendix throughput: ABTree, key range 2M, three mixes", func(o Options) error {
		return throughputFigure(o, "abtree", 2_000_000, paperMixes, abtreeSchemes)
	}},
	{"headline", "§7 headline ratios: NBR+ vs DEBRA and HP on the tree and list", headline},
	{"ablate-sigcost", "Ablation: sensitivity of NBR/NBR+ to the simulated signal cost", ablateSigCost},
	{"ablate-bag", "Ablation: NBR+ limbo-bag HiWatermark sweep", ablateBag},
	{"ablate-lowm", "Ablation: NBR+ LoWatermark fraction sweep", ablateLoWm},
	{"ablate-signals", "Ablation: signals per operation, NBR vs NBR+ (the O(n²)→O(n) claim)", ablateSignals},
	{"ablate-latency", "Ablation: sampled operation latency (reclamation bursts show up in the tail)", ablateLatency},
	{"ablate-timeline", "Ablation: live-memory timeline under a stalled thread (E2 over time)", ablateTimeline},
}

// Lookup finds a preset by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// runCell measures one workload cell, averaged over Trials.
func runCell(o Options, w Workload) (Result, error) {
	var acc Result
	for trial := 0; trial < o.Trials; trial++ {
		w.Seed = uint64(trial+1) * 0x9e3779b97f4a7c15
		r, err := Run(w)
		if err != nil {
			return Result{}, err
		}
		if trial == 0 {
			acc = r
		} else {
			acc.Mops += r.Mops
			acc.Ops += r.Ops
			if r.PeakBytes > acc.PeakBytes {
				acc.PeakBytes = r.PeakBytes
			}
			if r.PeakLive > acc.PeakLive {
				acc.PeakLive = r.PeakLive
			}
		}
	}
	acc.Mops /= float64(o.Trials)
	return acc, nil
}

// throughputFigure prints one figure: a table per mix, thread counts as
// rows, schemes as columns — the same series the paper plots.
func throughputFigure(o Options, dsName string, paperRange uint64, mixes []mix, schemes []string) error {
	keyRange := scaleRange(o, paperRange)
	for _, m := range mixes {
		fmt.Fprintf(o.Out, "\n%s  %s  key range %d (paper: %d)  prefill %d  [Mops/s]\n",
			dsName, m, keyRange, paperRange, keyRange/2)
		tw := tabwriter.NewWriter(o.Out, 8, 0, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range schemes {
			fmt.Fprintf(tw, "\t%s", s)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, s := range schemes {
				r, err := runCell(o, Workload{
					DS: dsName, Scheme: s, Threads: th, KeyRange: keyRange,
					InsPct: m.ins, DelPct: m.del, Duration: o.Duration,
					Prefill: -1, Cfg: o.Cfg,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%.3f", r.Mops)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// fig4b is E4: the restart-from-root study on the Harris-Michael list.
func fig4b(o Options) error {
	series := []struct{ ds, scheme, label string }{
		{"hmlist", "nbr+", "nbr+"},
		{"hmlist", "debra", "debra-restarts"},
		{"hmlist-norestart", "debra", "debra-norestarts"},
		{"hmlist", "none", "none"},
	}
	for _, keyRange := range []uint64{20_000, 200} {
		fmt.Fprintf(o.Out, "\nhmlist restart study  50i-50d  key range %d  [Mops/s]\n", keyRange)
		tw := tabwriter.NewWriter(o.Out, 8, 0, 2, ' ', 0)
		fmt.Fprint(tw, "threads")
		for _, s := range series {
			fmt.Fprintf(tw, "\t%s", s.label)
		}
		fmt.Fprintln(tw)
		for _, th := range o.Threads {
			fmt.Fprintf(tw, "%d", th)
			for _, s := range series {
				r, err := runCell(o, Workload{
					DS: s.ds, Scheme: s.scheme, Threads: th, KeyRange: keyRange,
					InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: o.Cfg,
				})
				if err != nil {
					return err
				}
				fmt.Fprintf(tw, "\t%.3f", r.Mops)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// memoryFigure is E2: peak resident memory per scheme on the DGT tree, with
// or without a stalled thread, at the largest thread count in the sweep.
func memoryFigure(o Options, stall bool) error {
	keyRange := scaleRange(o, 2_000_000)
	threads := o.Threads[len(o.Threads)-1]
	label := "no stalled thread"
	if stall {
		label = "one stalled thread"
	}
	fmt.Fprintf(o.Out, "\nDGT  50i-50d  key range %d  %d threads  %s  peak resident memory\n",
		keyRange, threads, label)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tpeak MB\tpeak records\tretired\tfreed\tgarbage")
	for _, s := range stdSchemes {
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: s, Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1,
			Stall: stall, Cfg: o.Cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%d\t%d\t%d\n",
			s, float64(r.PeakBytes)/(1<<20), r.PeakLive,
			r.Stats.Retired, r.Stats.Freed, r.Stats.Garbage())
	}
	return tw.Flush()
}

// headline reports the §7 comparison ratios at the largest thread count.
func headline(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	type target struct {
		ds       string
		keyRange uint64
		vsDebra  string // paper claim
		vsHP     string
	}
	targets := []target{
		{"dgt", scaleRange(o, 2_000_000), "paper: nbr+ up to +38%", "paper: nbr+ up to +17%"},
		{"lazylist", 20_000, "paper: nbr+ up to +15%", "paper: nbr+ up to +243%"},
	}
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tnbr+ Mops\tdebra Mops\thp Mops\tnbr+/debra\tnbr+/hp\tpaper")
	for _, t := range targets {
		mops := map[string]float64{}
		for _, s := range []string{"nbr+", "debra", "hp"} {
			r, err := runCell(o, Workload{
				DS: t.ds, Scheme: s, Threads: threads, KeyRange: t.keyRange,
				InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: o.Cfg,
			})
			if err != nil {
				return err
			}
			mops[s] = r.Mops
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%+.1f%%\t%+.1f%%\t%s | %s\n",
			t.ds, mops["nbr+"], mops["debra"], mops["hp"],
			100*(mops["nbr+"]/mops["debra"]-1), 100*(mops["nbr+"]/mops["hp"]-1),
			t.vsDebra, t.vsHP)
	}
	return tw.Flush()
}

// ablateSigCost sweeps the simulated pthread_kill cost: NBR's throughput
// should degrade with signal cost much faster than NBR+'s.
func ablateSigCost(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	costs := []int{0, 200, 600, 2000, 10000}
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  small bags (256) to force frequent signalling  [Mops/s]\n",
		keyRange, threads)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "send spin\tnbr\tnbr+\tdebra (ref)")
	for _, c := range costs {
		cfg := o.Cfg
		cfg.SendSpin = c
		cfg.HandleSpin = c / 2
		cfg.BagSize = 256 // reclaim often so the signal path dominates
		row := make(map[string]float64)
		for _, s := range []string{"nbr", "nbr+", "debra"} {
			r, err := runCell(o, Workload{
				DS: "dgt", Scheme: s, Threads: threads, KeyRange: keyRange,
				InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: cfg,
			})
			if err != nil {
				return err
			}
			row[s] = r.Mops
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n", c, row["nbr"], row["nbr+"], row["debra"])
	}
	return tw.Flush()
}

// ablateBag sweeps the limbo-bag HiWatermark (paper default 32k at 192
// threads): small bags signal constantly, large bags hold more garbage.
func ablateBag(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  bag-size sweep\n", keyRange, threads)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "bag size\tnbr+ Mops\tsignals\tpeak MB")
	for _, bag := range []int{128, 256, 512, 1024, 2048, 4096} {
		cfg := o.Cfg
		cfg.BagSize = bag
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: "nbr+", Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%d\t%.3f\t%d\t%.2f\n", bag, r.Mops, r.Stats.Signals,
			float64(r.PeakBytes)/(1<<20))
	}
	return tw.Flush()
}

// ablateLoWm sweeps the NBR+ LoWatermark fraction ("one half or one quarter
// full").
func ablateLoWm(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  LoWatermark sweep\n", keyRange, threads)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "lo fraction\tnbr+ Mops\tsignals\tfreed")
	for _, f := range []float64{0.125, 0.25, 0.5, 0.75, 0.9} {
		cfg := o.Cfg
		cfg.LoFraction = f
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: "nbr+", Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%.3f\t%.3f\t%d\t%d\n", f, r.Mops, r.Stats.Signals, r.Stats.Freed)
	}
	return tw.Flush()
}

// ablateSignals compares signal traffic between NBR and NBR+ (the paper's
// O(n²) vs O(n) signals-per-grace-period claim, §5).
func ablateSignals(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	// A large bag and a low LoWatermark give NBR+ a wide window in which
	// to observe other threads' RGPs (the paper runs 32k-record bags).
	cfg := o.Cfg
	cfg.BagSize = 2048
	cfg.LoFraction = 0.25
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  bag 2048  LoWm 0.25\n", keyRange, threads)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tMops\tsignals\tsignals/1k ops\tfreed\tgarbage")
	for _, s := range []string{"nbr", "nbr+"} {
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: s, Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: cfg,
		})
		if err != nil {
			return err
		}
		perK := float64(r.Stats.Signals) / float64(r.Ops) * 1000
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%.2f\t%d\t%d\n",
			s, r.Mops, r.Stats.Signals, perK, r.Stats.Freed, r.Stats.Garbage())
	}
	return tw.Flush()
}

// ablateLatency reports sampled latency quantiles per scheme: DEBRA's epoch
// rotations free whole bags at once, which shows up as a heavier tail than
// NBR+'s incremental reclamation (P1 covers latency, not just throughput).
func ablateLatency(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  sampled op latency\n", keyRange, threads)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tMops\tp50\tp99\tmax")
	for _, s := range []string{"none", "debra", "hp", "nbr", "nbr+"} {
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: s, Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1, Cfg: o.Cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%v\t%v\t%v\n", s, r.Mops, r.LatP50, r.LatP99, r.LatMax)
	}
	return tw.Flush()
}

// ablateTimeline renders the live-bytes timeline as text sparklines: under
// a stalled thread the epoch schemes climb monotonically while NBR+ shows a
// bounded sawtooth (bag fills, RGP, burst free).
func ablateTimeline(o Options) error {
	threads := o.Threads[len(o.Threads)-1]
	keyRange := scaleRange(o, 2_000_000)
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads + 1 stalled  live bytes over time\n",
		keyRange, threads)
	for _, s := range []string{"none", "debra", "nbr+"} {
		r, err := runCell(o, Workload{
			DS: "dgt", Scheme: s, Threads: threads, KeyRange: keyRange,
			InsPct: 50, DelPct: 50, Duration: o.Duration, Prefill: -1,
			Stall: true, Cfg: o.Cfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "%-6s |%s| %.1f → %.1f MB (peak %.1f)\n",
			s, sparkline(r.Series, 60),
			firstMB(r.Series), lastMB(r.Series), float64(r.PeakBytes)/(1<<20))
	}
	return nil
}

func firstMB(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[0]) / (1 << 20)
}

func lastMB(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[len(s)-1]) / (1 << 20)
}

// sparkline downsamples a series into width buckets of block characters.
func sparkline(series []int64, width int) string {
	if len(series) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if width > len(series) {
		width = len(series)
	}
	var lo, hi int64 = series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		v := series[i*len(series)/width]
		idx := int((v - lo) * int64(len(blocks)-1) / span)
		out[i] = blocks[idx]
	}
	return string(out)
}

// PrintTable1 renders the applicability matrix with its notes.
func PrintTable1(out io.Writer) {
	tw := tabwriter.NewWriter(out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tNBR/NBR+\tEBR (qsbr,rcu,debra)\tHP-family (hp,ibr,he)")
	names := append([]string{}, catalog.DSNames...)
	sort.Strings(names)
	for _, d := range names {
		fmt.Fprintf(tw, "%s", d)
		for _, fam := range []string{"nbr", "debra", "hp"} {
			v, _ := catalog.Table1Verdict(d, fam)
			cell := "no"
			if v.OK {
				cell = "yes"
			} else if catalog.Runnable(d, fam) {
				cell = "no*"
			}
			fmt.Fprintf(tw, "\t%s", cell)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(out, "\n(no* = Table 1 says no, but the harness runs it in benchmark mode as the paper's E1 does)")
	fmt.Fprintln(out, "\nnotes:")
	for _, d := range names {
		for _, fam := range []string{"nbr", "debra", "hp"} {
			if v, ok := catalog.Table1Verdict(d, fam); ok && v.Note != "" {
				fmt.Fprintf(out, "  %s / %s: %s\n", d, fam, v.Note)
			}
		}
	}
}
