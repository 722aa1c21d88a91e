// Command nbrtrend charts the perf-snapshot trajectory: it diffs
// consecutive BENCH_<n>.json files (written by `nbrbench -snapshot`) and
// flags regressions — throughput drops in the end-to-end workload and
// shared-runtime cells and cost growth in the reservation-scan and
// free-burst microbenchmarks. Counter columns are flagged host-independently,
// because they are not timings: a counter ratio (the hub's dispatch-per-burst
// amortization, the segment cells' stamps and scans per record) worsening past
// the threshold, and a count that must stay zero (reaps outside the stall
// cell, the declared-widths-vs-Runtime width gap, scan allocations) leaving
// it.
// After each pair it also lists the invariants the newer snapshot breaks on
// its own (the same check `nbrbench -snapshot -assert-bound` blocks on).
//
// Only same-host snapshot pairs (matching gomaxprocs and goarch) are
// compared by default: numbers from different host shapes say nothing about
// the reclaim path, so mismatched pairs are skipped with a note unless
// -all-hosts is given (which prints them, still never flagged). The
// committed BENCH_<n>.json trajectory is likewise opt-in via -committed —
// the BENCH_2→BENCH_3 episode showed a container drifting 20–40% between
// sessions with an identical host shape, so the trustworthy default diff is
// two snapshots you measured yourself (e.g. CI artifacts from the same
// runner class), not the committed history.
//
// The exit status is always 0 unless -strict is set, so CI can run it as a
// non-blocking report step.
//
// Examples:
//
//	nbrtrend BENCH_prev.json BENCH_next.json
//	nbrtrend -committed
//	nbrtrend -committed -all-hosts -threshold 5 -strict
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"

	"nbr/internal/bench"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 10, "worsening percentage that flags a regression")
		strict    = flag.Bool("strict", false, "exit 1 when any regression is flagged")
		committed = flag.Bool("committed", false, "with no explicit paths, diff the committed BENCH_<n>.json trajectory (opt-in: committed snapshots drift with the hosts that recorded them)")
		allHosts  = flag.Bool("all-hosts", false, "also print pairs whose host shape (gomaxprocs/goarch) differs; their deltas are untrusted and never flagged")
	)
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		if !*committed {
			fmt.Println("nbrtrend: no snapshots given; pass two BENCH_*.json paths, or -committed to diff the committed trajectory (opt-in since the committed files were recorded on drifting hosts)")
			return
		}
		var err error
		paths, err = defaultPaths()
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbrtrend:", err)
			os.Exit(1)
		}
	}
	if len(paths) < 2 {
		fmt.Printf("nbrtrend: need at least two snapshots to diff (found %d); run `nbrbench -snapshot BENCH_<n>.json` to record one\n", len(paths))
		return
	}

	snaps := make([]bench.Snapshot, len(paths))
	for i, p := range paths {
		s, err := bench.ReadSnapshot(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbrtrend:", err)
			os.Exit(1)
		}
		snaps[i] = s
	}

	regressed := false
	skipped := 0
	for i := 1; i < len(snaps); i++ {
		mismatch := bench.HostShapeMismatch(snaps[i-1], snaps[i])
		if mismatch != "" && !*allHosts {
			skipped++
			fmt.Printf("# %s → %s: SKIPPED, host shape differs (%s); pass -all-hosts to print anyway\n",
				paths[i-1], paths[i], mismatch)
			continue
		}
		fmt.Printf("# %s → %s (%s → %s, threshold %.0f%%)\n",
			paths[i-1], paths[i], snaps[i-1].Schema, snaps[i].Schema, *threshold)
		if mismatch != "" {
			fmt.Printf("  WARNING: host shape differs (%s); deltas below are untrusted and not flagged\n", mismatch)
		}
		deltas := bench.CompareSnapshots(snaps[i-1], snaps[i], *threshold)
		for _, d := range deltas {
			fmt.Println(" ", d)
		}
		if regs := bench.Regressions(deltas); len(regs) > 0 {
			regressed = true
			fmt.Printf("  => %d regression(s) flagged\n", len(regs))
		} else if len(deltas) == 0 {
			fmt.Println("  (no comparable cells)")
		} else {
			fmt.Println("  => no regressions")
		}
		// The newer snapshot's own invariants, whatever its predecessor read:
		// a count that was already non-zero last time is still broken.
		for _, v := range snaps[i].Violations() {
			regressed = true
			fmt.Printf("  VIOLATION in %s: %s\n", paths[i], v)
		}
	}
	if skipped > 0 {
		fmt.Printf("# %d pair(s) skipped for host-shape mismatch\n", skipped)
	}
	if *strict && regressed {
		os.Exit(1)
	}
}

var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// defaultPaths globs BENCH_<n>.json in the working directory, ordered by n.
func defaultPaths() ([]string, error) {
	paths, err := filepath.Glob("BENCH_*.json")
	paths = slices.DeleteFunc(paths, func(p string) bool { return !benchFile.MatchString(p) })
	n := func(p string) int {
		n, _ := strconv.Atoi(benchFile.FindStringSubmatch(p)[1])
		return n
	}
	slices.SortFunc(paths, func(a, b string) int { return n(a) - n(b) })
	return paths, err
}
