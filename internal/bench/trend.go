package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// This file is the snapshot-trajectory tooling behind cmd/nbrtrend: it
// loads the BENCH_<n>.json files that accumulate one per PR and diffs
// consecutive pairs, so a session (or CI) can see at a glance whether the
// reclaim path got faster or slower since the last snapshot.

// ReadSnapshot loads one perf snapshot. Older schema versions load too —
// fields they lack (e.g. v1 has no batch histograms) stay zero and the
// comparison simply skips them.
func ReadSnapshot(path string) (Snapshot, error) {
	var s Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(s.Schema, "nbr-perf-snapshot/") {
		return s, fmt.Errorf("%s: schema %q is not a perf snapshot", path, s.Schema)
	}
	return s, nil
}

// TrendDelta is one metric compared across two snapshots.
type TrendDelta struct {
	Cell       string // e.g. "workload dgt/nbr+ t=8 range=200000"
	Metric     string // e.g. "mops"
	Prev, Next float64
	// Pct is the relative change in the direction of the metric: positive
	// means worse (throughput down, cost up).
	Pct        float64
	Regression bool
	// Untrusted marks a delta whose two sides are not comparable: snapshots
	// from different host shapes (gomaxprocs/goarch), or a runtime-cell timing
	// across the schema v8/v9 boundary (see CompareSnapshots). The numbers are
	// shown but never flagged.
	Untrusted bool
}

func (d TrendDelta) String() string {
	tag := ""
	switch {
	case d.Regression:
		// Host-independent invariants (a scan that starts allocating) stay
		// flagged even across host shapes.
		tag = "  REGRESSION"
	case d.Untrusted:
		tag = "  UNTRUSTED(host shape or runtime-cell source differs)"
	}
	return fmt.Sprintf("%-44s %-10s %10.3f → %10.3f  (%+.1f%%)%s", d.Cell, d.Metric, d.Prev, d.Next, d.Pct, tag)
}

// HostShapeMismatch describes why two snapshots' numbers are not comparable
// (different gomaxprocs or goarch), or returns "" when they are. Deltas
// computed across a mismatch are marked Untrusted and never flagged as
// regressions — a slower machine is not a slower reclaim path.
func HostShapeMismatch(prev, next Snapshot) string {
	var reasons []string
	if prev.GOMAXPROCS != next.GOMAXPROCS {
		reasons = append(reasons, fmt.Sprintf("gomaxprocs %d → %d", prev.GOMAXPROCS, next.GOMAXPROCS))
	}
	if prev.GOARCH != next.GOARCH {
		reasons = append(reasons, fmt.Sprintf("goarch %s → %s", prev.GOARCH, next.GOARCH))
	}
	return strings.Join(reasons, ", ")
}

// worsePct returns how much worse next is than prev, as a percentage, for a
// metric where `up` indicates whether larger values are worse.
func worsePct(prev, next float64, up bool) float64 {
	if prev == 0 {
		return 0
	}
	pct := (next - prev) / prev * 100
	if !up {
		pct = -pct
	}
	return pct
}

// CompareSnapshots diffs every cell the two snapshots share: one walk over
// (cell, column), in the newer snapshot's order. Cells are matched by key;
// each column is judged by its class (see class): threshold is the worsening
// percentage above which a timing or counter-ratio column is flagged,
// informational columns are reported but never flagged, and a must-stay-zero
// count is flagged when it leaves zero — on any host, since the invariant is
// exact.
func CompareSnapshots(prev, next Snapshot, threshold float64) []TrendDelta {
	hosts := HostShapeMismatch(prev, next) != ""
	// Up to schema v8 the runtime cells ran a reconstruction of the runtime
	// inside the harness (workers spinning on a full registry); from v9 they
	// run the public nbr.Runtime. Across that boundary their wall-clock
	// columns are not comparable; their counters obey the same invariants on
	// both sides and are compared (and flagged) as ever.
	source := fromTwin(prev) != fromTwin(next)
	before := map[string][]column{}
	for _, p := range prev.points() {
		before[p.key()] = p.columns()
	}
	var out []TrendDelta
	for _, n := range next.points() {
		cell := n.key()
		was, shared := before[cell]
		if !shared {
			continue
		}
		_, runtimeCell := n.(RuntimePoint)
		for i, c := range n.columns() {
			p := was[i] // same key, same point type, same column list
			skip := p.absent || c.absent
			if c.class == zero { // a count leaving zero shows even when only one side has it
				skip = p.absent && c.absent
			}
			if skip {
				continue
			}
			d := TrendDelta{Cell: cell, Metric: c.name, Prev: p.v, Next: c.v, Pct: worsePct(p.v, c.v, c.up)}
			wallClock := c.class == timing || c.class == info
			d.Untrusted = !c.exact && (hosts || wallClock && runtimeCell && source)
			switch c.class {
			case timing:
				d.Regression = d.Pct > threshold && !d.Untrusted
			case ratio:
				d.Regression = d.Pct > threshold
			case zero:
				d.Regression = p.v <= 0 && c.v > 0
			}
			out = append(out, d)
		}
	}
	return out
}

// fromTwin reports whether a snapshot's runtime cells predate schema v9. A
// schema that does not parse reads as v0 — older than any boundary.
func fromTwin(s Snapshot) bool {
	var v int
	fmt.Sscanf(s.Schema, "nbr-perf-snapshot/v%d", &v)
	return v < 9
}

// Regressions filters a comparison down to the flagged deltas.
func Regressions(deltas []TrendDelta) []TrendDelta {
	return slices.DeleteFunc(slices.Clone(deltas), func(d TrendDelta) bool { return !d.Regression })
}
