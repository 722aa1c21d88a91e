package bench

import (
	"fmt"
	"io"
	"slices"
	"strings"
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

var (
	paperMixes = []mix{{50, 50}, {25, 25}, {5, 5}}
	updateMix  = paperMixes[:1]
)

// stdSchemes is the paper's E1 comparison set (plus base NBR).
var stdSchemes = []string{"none", "qsbr", "rcu", "debra", "ibr", "hp", "nbr", "nbr+"}

// abtreeSchemes is the E3 set (Table 1 rules pointer-based schemes out).
var abtreeSchemes = []string{"none", "qsbr", "rcu", "debra", "nbr", "nbr+"}

// scaleRange maps the paper's key ranges onto this host unless Full is set:
// prefilling 10M records and measuring on one core adds minutes per cell
// without changing who wins (DESIGN.md §2).
func scaleRange(o Options, paper uint64) uint64 {
	switch {
	case o.Full || paper < 2_000_000:
		return paper
	case paper < 20_000_000:
		return 200_000
	}
	return 400_000
}

// series is one curve of an exhibit: a scheme on a structure variant.
type series struct{ label, ds, scheme string }

// Grid is one exhibit's cell grid: mixes × the thread sweep × series, on one
// of the paper's key ranges.
type Grid struct {
	Title      string // what the header calls the structure
	PaperRange uint64
	Mixes      []mix
	Series     []series
	// Stall adds E2's sleeping thread to every cell; TopOnly measures only the
	// largest thread count of the sweep (the E2 figures are not sweeps).
	Stall, TopOnly bool
}

// grid is the common case: one structure, its schemes as the series.
func grid(ds string, paperRange uint64, mixes []mix, schemes []string) Grid {
	g := Grid{Title: ds, PaperRange: paperRange, Mixes: mixes}
	for _, s := range schemes {
		g.Series = append(g.Series, series{s, ds, s})
	}
	return g
}

// restartStudy is E4's grid: the restart-from-root cost on the Harris-Michael
// list, with and without restarts under DEBRA.
func restartStudy(keyRange uint64) Grid {
	return Grid{Title: "hmlist restart study", PaperRange: keyRange, Mixes: updateMix, Series: []series{
		{"nbr+", "hmlist", "nbr+"},
		{"debra-restarts", "hmlist", "debra"},
		{"debra-norestarts", "hmlist-norestart", "debra"},
		{"none", "hmlist", "none"},
	}}
}

func (g Grid) threads(o Options) []int {
	if g.TopOnly {
		return o.Threads[len(o.Threads)-1:]
	}
	return o.Threads
}

func (g Grid) workload(o Options, m mix, threads int, s series) Workload {
	return Workload{
		DS: s.ds, Scheme: s.scheme, Threads: threads, KeyRange: scaleRange(o, g.PaperRange),
		InsPct: m.ins, DelPct: m.del, Duration: o.Duration, Stall: g.Stall, Cfg: o.Cfg,
	}
}

// Cell is one workload of a preset's grids, named
// "<mix>/r<paper key range>/t<threads>/<series>" for reports and
// sub-benchmarks.
type Cell struct {
	Name string
	Workload
}

// Experiment is one runnable preset reproducing a paper exhibit.
type Experiment struct {
	Name, Desc string
	Run        func(o Options) error
	// Grids are the exhibit's cells, for the presets that are grids (the
	// figures); the headline and ablation presets build theirs as they go.
	Grids []Grid
}

// Cells lists every workload of the preset's grids under o, in figure order —
// the one place the grids are walked, for the figure printer and the root
// package's BenchmarkFig* alike.
func (e Experiment) Cells(o Options) []Cell {
	var out []Cell
	for _, g := range e.Grids {
		for _, m := range g.Mixes {
			for _, th := range g.threads(o) {
				for _, s := range g.Series {
					name := fmt.Sprintf("%s/r%d/t%d/%s", m, g.PaperRange, th, s.label)
					out = append(out, Cell{name, g.workload(o, m, th, s)})
				}
			}
		}
	}
	return out
}

// figure is a throughput exhibit: its grids, printed by throughputFigure.
func figure(name, desc string, grids ...Grid) Experiment {
	return Experiment{name, desc, func(o Options) error { return throughputFigure(o, grids...) }, grids}
}

// memoryPreset is an E2 exhibit: every scheme on the DGT tree, at the top
// thread count.
func memoryPreset(name, desc string, stall bool) Experiment {
	g := grid("dgt", 2_000_000, updateMix, stdSchemes)
	g.Stall, g.TopOnly = stall, true
	return Experiment{name, desc, func(o Options) error { return memoryFigure(o, g) }, []Grid{g}}
}

// Experiments lists every preset, in paper order.
var Experiments = []Experiment{
	figure("fig3a", "E1 throughput: DGT tree, key range 2M, three mixes", grid("dgt", 2_000_000, paperMixes, stdSchemes)),
	figure("fig3b", "E1 throughput: lazy list, key range 20K, three mixes", grid("lazylist", 20_000, paperMixes, stdSchemes)),
	figure("fig4a", "E3 throughput: ABTree, 50i-50d, key ranges 2M and 200",
		grid("abtree", 2_000_000, updateMix, abtreeSchemes), grid("abtree", 200, updateMix, abtreeSchemes)),
	figure("fig4b", "E4 throughput: Harris-Michael list restart study, 50i-50d, ranges 20K and 200",
		restartStudy(20_000), restartStudy(200)),
	memoryPreset("fig4c", "E2 peak memory with one stalled thread (DGT, 50i-50d, 2M)", true),
	memoryPreset("fig4d", "E2 peak memory with no stalled thread (DGT, 50i-50d, 2M)", false),
	figure("fig5a", "Appendix throughput: DGT, key range 20M, three mixes", grid("dgt", 20_000_000, paperMixes, stdSchemes)),
	figure("fig5b", "Appendix throughput: DGT, key range 20K, three mixes", grid("dgt", 20_000, paperMixes, stdSchemes)),
	figure("fig6a", "Appendix throughput: lazy list, key range 2K, three mixes", grid("lazylist", 2_000, paperMixes, stdSchemes)),
	figure("fig6b", "Appendix throughput: lazy list, key range 200, three mixes", grid("lazylist", 200, paperMixes, stdSchemes)),
	figure("fig7a", "Appendix throughput: Harris list, key range 200, three mixes", grid("harris", 200, paperMixes, stdSchemes)),
	figure("fig7b", "Appendix throughput: Harris list, key range 2K, three mixes", grid("harris", 2_000, paperMixes, stdSchemes)),
	figure("fig7c", "Appendix throughput: Harris list, key range 20K, three mixes", grid("harris", 20_000, paperMixes, stdSchemes)),
	figure("fig8a", "Appendix throughput: ABTree, key range 20M, three mixes", grid("abtree", 20_000_000, paperMixes, abtreeSchemes)),
	figure("fig8b", "Appendix throughput: ABTree, key range 2M, three mixes", grid("abtree", 2_000_000, paperMixes, abtreeSchemes)),
	{Name: "headline", Desc: "§7 headline ratios: NBR+ vs DEBRA and HP on the tree and list", Run: headline},
	{Name: "ablate-sigcost", Desc: "Ablation: sensitivity of NBR/NBR+ to the simulated signal cost", Run: ablateSigCost},
	{Name: "ablate-bag", Desc: "Ablation: NBR+ limbo-bag HiWatermark sweep", Run: ablateBag},
	{Name: "ablate-lowm", Desc: "Ablation: NBR+ LoWatermark fraction sweep", Run: ablateLoWm},
	{Name: "ablate-signals", Desc: "Ablation: signals per operation, NBR vs NBR+ (the O(n²)→O(n) claim)", Run: ablateSignals},
	{Name: "ablate-latency", Desc: "Ablation: sampled operation latency (reclamation bursts show up in the tail)", Run: ablateLatency},
	{Name: "ablate-timeline", Desc: "Ablation: live-memory timeline under a stalled thread (E2 over time)", Run: ablateTimeline},
}

// Lookup finds a preset by name.
func Lookup(name string) (Experiment, bool) {
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return Experiments[i], true
}

// runCell measures one workload cell, averaged over Trials.
func runCell(o Options, w Workload) (Result, error) {
	if o.Trials < 1 {
		return Result{}, fmt.Errorf("bench: trial count %d, want at least 1", o.Trials)
	}
	var acc Result
	for trial := 0; trial < o.Trials; trial++ {
		w.Seed = uint64(trial+1) * 0x9e3779b97f4a7c15
		r, err := Run(w)
		if err != nil {
			return Result{}, err
		}
		// Throughput and op counts add up, peaks are peaks; everything else
		// reads as the last trial's.
		r.Mops, r.Ops = r.Mops+acc.Mops, r.Ops+acc.Ops
		r.PeakMB, r.PeakLive = max(r.PeakMB, acc.PeakMB), max(r.PeakLive, acc.PeakLive)
		acc = r
	}
	acc.Mops /= float64(o.Trials)
	return acc, nil
}

// throughputFigure is the one grid printer: per grid, a table per mix, thread
// counts as rows, series as columns — the same curves the paper plots.
func throughputFigure(o Options, grids ...Grid) error {
	for _, g := range grids {
		keyRange := scaleRange(o, g.PaperRange)
		for _, m := range g.Mixes {
			fmt.Fprintf(o.Out, "\n%s  %s  key range %d (paper: %d)  prefill %d  [Mops/s]\n",
				g.Title, m, keyRange, g.PaperRange, keyRange/2)
			tw := tabwriter.NewWriter(o.Out, 8, 0, 2, ' ', 0)
			fmt.Fprint(tw, "threads")
			for _, s := range g.Series {
				fmt.Fprintf(tw, "\t%s", s.label)
			}
			fmt.Fprintln(tw)
			for _, th := range g.threads(o) {
				fmt.Fprintf(tw, "%d", th)
				for _, s := range g.Series {
					r, err := runCell(o, g.workload(o, m, th, s))
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
	}
	return nil
}

// memoryFigure is E2: peak resident memory per scheme on the DGT tree, with
// or without a stalled thread, at the largest thread count in the sweep.
func memoryFigure(o Options, g Grid) error {
	threads := g.threads(o)[0]
	label := "no stalled thread"
	if g.Stall {
		label = "one stalled thread"
	}
	fmt.Fprintf(o.Out, "\nDGT  50i-50d  key range %d  %d threads  %s  peak resident memory\n",
		scaleRange(o, g.PaperRange), threads, label)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tpeak MB\tpeak records\tretired\tfreed\tgarbage")
	for _, s := range g.Series {
		r, err := runCell(o, g.workload(o, g.Mixes[0], threads, s))
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%d\t%d\t%d\n",
			s.label, r.PeakMB, r.PeakLive, r.Stats.Retired, r.Stats.Freed, r.Stats.Garbage())
	}
	return tw.Flush()
}

// topCell measures one 50i-50d cell at the sweep's largest thread count: what
// the headline and every ablation are built from.
func topCell(o Options, ds, scheme string, keyRange uint64, cfg catalog.SchemeConfig, stall bool) (Result, error) {
	return runCell(o, Workload{
		DS: ds, Scheme: scheme, Threads: o.Threads[len(o.Threads)-1], KeyRange: keyRange,
		InsPct: 50, DelPct: 50, Duration: o.Duration, Stall: stall, Cfg: cfg,
	})
}

// dgtCell is topCell on the ablations' common ground, the DGT tree at the
// (host-scaled) 2M range.
func dgtCell(o Options, scheme string, cfg catalog.SchemeConfig, stall bool) (Result, error) {
	return topCell(o, "dgt", scheme, scaleRange(o, 2_000_000), cfg, stall)
}

// headline reports the §7 comparison ratios at the largest thread count.
func headline(o Options) error {
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tnbr+ Mops\tdebra Mops\thp Mops\tnbr+/debra\tnbr+/hp\tpaper")
	for _, t := range []struct {
		ds       string
		keyRange uint64
		paper    string // the claims against DEBRA | HP
	}{
		{"dgt", scaleRange(o, 2_000_000), "paper: nbr+ up to +38% | paper: nbr+ up to +17%"},
		{"lazylist", 20_000, "paper: nbr+ up to +15% | paper: nbr+ up to +243%"},
	} {
		var mops [3]float64
		for i, s := range []string{"nbr+", "debra", "hp"} {
			r, err := topCell(o, t.ds, s, t.keyRange, o.Cfg, false)
			if err != nil {
				return err
			}
			mops[i] = r.Mops
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%+.1f%%\t%+.1f%%\t%s\n", t.ds, mops[0], mops[1], mops[2],
			100*(mops[0]/mops[1]-1), 100*(mops[0]/mops[2]-1), t.paper)
	}
	return tw.Flush()
}

// ablationRow is one line of an ablation table: the dgt cell under cfg, once
// per scheme.
type ablationRow struct {
	label   string
	cfg     catalog.SchemeConfig
	schemes []string
}

// perScheme is the ablation whose lines are the schemes themselves.
func perScheme(cfg catalog.SchemeConfig, schemes ...string) (rows []ablationRow) {
	for _, s := range schemes {
		rows = append(rows, ablationRow{s, cfg, []string{s}})
	}
	return rows
}

// ablate is the one ablation printer: a line per row, show(result) for each
// of the row's schemes. stall adds E2's sleeping thread to every cell.
func ablate(o Options, what, header string, stall bool, rows []ablationRow, show func(Result) string) error {
	fmt.Fprintf(o.Out, "\ndgt  50i-50d  key range %d  %d threads  %s\n",
		scaleRange(o, 2_000_000), o.Threads[len(o.Threads)-1], what)
	tw := tabwriter.NewWriter(o.Out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, row := range rows {
		fmt.Fprint(tw, row.label)
		for _, s := range row.schemes {
			r, err := dgtCell(o, s, row.cfg, stall)
			if err != nil {
				return err
			}
			fmt.Fprint(tw, "\t", show(r))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// ablateSigCost sweeps the simulated pthread_kill cost: NBR's throughput
// should degrade with signal cost much faster than NBR+'s.
func ablateSigCost(o Options) error {
	var rows []ablationRow
	for _, c := range []int{0, 200, 600, 2000, 10000} {
		cfg := o.Cfg
		cfg.SendSpin, cfg.HandleSpin = c, c/2
		cfg.BagSize = 256 // reclaim often so the signal path dominates
		rows = append(rows, ablationRow{fmt.Sprint(c), cfg, []string{"nbr", "nbr+", "debra"}})
	}
	return ablate(o, "small bags (256) to force frequent signalling  [Mops/s]",
		"send spin\tnbr\tnbr+\tdebra (ref)", false, rows, func(r Result) string { return fmt.Sprintf("%.3f", r.Mops) })
}

// ablateBag sweeps the limbo-bag HiWatermark (paper default 32k at 192
// threads): small bags signal constantly, large bags hold more garbage.
func ablateBag(o Options) error {
	var rows []ablationRow
	for _, bag := range []int{128, 256, 512, 1024, 2048, 4096} {
		cfg := o.Cfg
		cfg.BagSize = bag
		rows = append(rows, ablationRow{fmt.Sprint(bag), cfg, []string{"nbr+"}})
	}
	return ablate(o, "bag-size sweep", "bag size\tnbr+ Mops\tsignals\tpeak MB", false, rows, func(r Result) string {
		return fmt.Sprintf("%.3f\t%d\t%.2f", r.Mops, r.Stats.Signals, r.PeakMB)
	})
}

// ablateLoWm sweeps the NBR+ LoWatermark fraction ("one half or one quarter
// full").
func ablateLoWm(o Options) error {
	var rows []ablationRow
	for _, f := range []float64{0.125, 0.25, 0.5, 0.75, 0.9} {
		cfg := o.Cfg
		cfg.LoFraction = f
		rows = append(rows, ablationRow{fmt.Sprintf("%.3f", f), cfg, []string{"nbr+"}})
	}
	return ablate(o, "LoWatermark sweep", "lo fraction\tnbr+ Mops\tsignals\tfreed", false, rows, func(r Result) string {
		return fmt.Sprintf("%.3f\t%d\t%d", r.Mops, r.Stats.Signals, r.Stats.Freed)
	})
}

// ablateSignals compares signal traffic between NBR and NBR+ (the paper's
// O(n²) vs O(n) signals-per-grace-period claim, §5).
func ablateSignals(o Options) error {
	// A large bag and a low LoWatermark give NBR+ a wide window in which
	// to observe other threads' RGPs (the paper runs 32k-record bags).
	cfg := o.Cfg
	cfg.BagSize, cfg.LoFraction = 2048, 0.25
	return ablate(o, "bag 2048  LoWm 0.25", "scheme\tMops\tsignals\tsignals/1k ops\tfreed\tgarbage", false,
		perScheme(cfg, "nbr", "nbr+"), func(r Result) string {
			perK := float64(r.Stats.Signals) / float64(r.Ops) * 1000
			return fmt.Sprintf("%.3f\t%d\t%.2f\t%d\t%d", r.Mops, r.Stats.Signals, perK, r.Stats.Freed, r.Stats.Garbage())
		})
}

// ablateLatency reports sampled latency quantiles per scheme: DEBRA's epoch
// rotations free whole bags at once, which shows up as a heavier tail than
// NBR+'s incremental reclamation (P1 covers latency, not just throughput).
func ablateLatency(o Options) error {
	return ablate(o, "sampled op latency", "scheme\tMops\tp50\tp99\tmax", false,
		perScheme(o.Cfg, "none", "debra", "hp", "nbr", "nbr+"), func(r Result) string {
			return fmt.Sprintf("%.3f\t%v\t%v\t%v", r.Mops, r.LatP50, r.LatP99, r.LatMax)
		})
}

// ablateTimeline renders the live-bytes timeline as text sparklines: under
// a stalled thread the epoch schemes climb monotonically while NBR+ shows a
// bounded sawtooth (bag fills, RGP, burst free).
func ablateTimeline(o Options) error {
	return ablate(o, "+ 1 stalled  live bytes over time", "scheme\ttimeline\tfirst → last MB (peak)", true,
		perScheme(o.Cfg, "none", "debra", "nbr+"), func(r Result) string {
			mb := func(i int) float64 { return float64(r.Series[i]) / (1 << 20) } // Run always samples at least once
			return fmt.Sprintf("|%s|\t%.1f → %.1f (%.1f)", sparkline(r.Series, 60), mb(0), mb(len(r.Series)-1), r.PeakMB)
		})
}

// sparkline downsamples a series into width buckets of block characters.
func sparkline(series []int64, width int) string {
	if len(series) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	width = min(width, len(series))
	lo := slices.Min(series)
	span := max(slices.Max(series)-lo, 1)
	out := make([]rune, width)
	for i := range out {
		v := series[i*len(series)/width]
		out[i] = blocks[(v-lo)*int64(len(blocks)-1)/span]
	}
	return string(out)
}

// PrintTable1 renders the applicability matrix with its notes.
func PrintTable1(out io.Writer) {
	tw := tabwriter.NewWriter(out, 10, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "structure\tNBR/NBR+\tEBR (qsbr,rcu,debra)\tHP-family (hp,ibr,he)")
	var notes []string
	for _, d := range slices.Sorted(slices.Values(catalog.DSNames)) {
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
			if v.Note != "" {
				notes = append(notes, fmt.Sprintf("  %s / %s: %s", d, fam, v.Note))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Fprintln(out, "\n(no* = Table 1 says no, but the harness runs it in benchmark mode as the paper's E1 does)")
	fmt.Fprintln(out, "\nnotes:\n"+strings.Join(notes, "\n"))
}
