// Package catalog is the module's table of contents: it constructs every
// reclamation scheme and data structure by name, declares each structure's
// announcement widths and encodes the paper's applicability matrix (Table 1).
// It is a leaf — it imports only ds/*, smr/*, core, mem and sigsim — so the
// public nbr package, the correctness suites and the benchmark harness all
// sit above it (DESIGN.md §1).
package catalog

import (
	"nbr/internal/core"
	"nbr/internal/ds"
	"nbr/internal/mem"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
	"nbr/internal/smr/debra"
	"nbr/internal/smr/epoch"
	"nbr/internal/smr/era"
	"nbr/internal/smr/hp"
	"nbr/internal/smr/leaky"
)

// SchemeNames lists every reclamation scheme in the harness, in the order
// the paper's figures present them.
var SchemeNames = []string{"none", "qsbr", "rcu", "debra", "ibr", "hp", "he", "nbr", "nbr+"}

// SchemeConfig carries every scheme knob the experiments sweep. A zero knob
// selects its scheme's own default; only the signal price has none behind
// it: zero makes a simulated signal free.
type SchemeConfig struct {
	// BagSize is the NBR limbo-bag HiWatermark.
	BagSize int
	// LoFraction positions the NBR+ LoWatermark.
	LoFraction float64
	// ScanFreq amortizes the NBR+ announceTS scan.
	ScanFreq int
	// SendSpin and HandleSpin are the simulated signal costs.
	SendSpin, HandleSpin int
	// Threshold is the bag limit of the epoch/pointer schemes
	// (qsbr/rcu/hp/ibr/he); 0 (the default) adopts the data structure's
	// declared per-peer depth (ds.Requirements.Threshold) when known, else
	// each scheme's own default.
	Threshold int
	// EraFreq is the IBR/HE era-advance period.
	EraFreq int
}

// DefaultSchemeConfig is the fixed-N harness's configuration: every knob at
// its scheme's default, and a simulated pthread_kill priced at 600 spin
// iterations to send and 300 to handle (DESIGN.md §2, §6).
func DefaultSchemeConfig() SchemeConfig {
	return SchemeConfig{SendSpin: 600, HandleSpin: 300}
}

// StressSchemeConfig is the aggressive setting the correctness suites and
// nbrstress run under: small bags, a short NBR+ scan cadence, shallow retire
// buffers and a fast era clock, so freeing and neutralization happen
// constantly at test scale rather than only at benchmark scale. Signals are
// free: the stress verdict is a safety verdict, not a cost.
func StressSchemeConfig() SchemeConfig {
	return SchemeConfig{BagSize: 128, ScanFreq: 4, Threshold: 48, EraFreq: 16}
}

// NewScheme constructs the named scheme over an arena for a thread count,
// with the conservative default announcement widths. Callers that know the
// data structure should prefer NewSchemeFor, which sizes the scheme's scan
// width to what the structure declares.
func NewScheme(name string, arena mem.Arena, threads int, cfg SchemeConfig) (smr.Scheme, error) {
	return NewSchemeFor(name, arena, threads, cfg, ds.DefaultRequirements)
}

// NewSchemeFor constructs the named scheme sized to a data structure's
// declared widths: req.Reservations becomes NBR's R, and req.Slots sizes the
// hazard-pointer/era announcement arrays — every reservation or hazard scan
// then walks N·width entries for the width the structure actually uses
// instead of a global worst case. req.Threshold (per peer thread) sizes the
// threshold-triggered schemes' retire buffers when cfg.Threshold is 0
// (auto), decoupling their scan frequency from the narrow per-DS Slots that
// would otherwise drag hp's 2·N·Slots default down with it; the 64-record
// floor matches the schemes' own minimum.
func NewSchemeFor(name string, arena mem.Arena, threads int, cfg SchemeConfig, req ds.Requirements) (smr.Scheme, error) {
	if req.Slots <= 0 {
		req.Slots = ds.DefaultRequirements.Slots
	}
	if req.Reservations <= 0 {
		req.Reservations = ds.DefaultRequirements.Reservations
	}
	if cfg.Threshold == 0 && req.Threshold > 0 {
		cfg.Threshold = threads * req.Threshold
		if cfg.Threshold < 64 {
			cfg.Threshold = 64
		}
	}
	sig := sigsim.Config{SendSpin: cfg.SendSpin, HandleSpin: cfg.HandleSpin}
	sch, err := newScheme(name, arena, threads, cfg, req, sig)
	if err != nil {
		return nil, err
	}
	// Size each thread's allocator cache to the scheme's declared
	// reclamation burst (the limbo bag for NBR, the scan threshold for the
	// pointer/era schemes), so one reclamation amortizes to at most one
	// shared-shard interaction and the recycled slots stay local for the
	// allocations that refill the structure (ROADMAP item from PR 1).
	// SizeCache only ever raises a target, and a Hub replays it onto pools
	// attached later, so this one pass covers every slot for good.
	if burst := sch.ReclaimBurst(); burst > 0 {
		for tid := 0; tid < threads; tid++ {
			arena.SizeCache(tid, burst)
		}
	}
	return sch, nil
}

func newScheme(name string, arena mem.Arena, threads int, cfg SchemeConfig, req ds.Requirements, sig sigsim.Config) (smr.Scheme, error) {
	switch name {
	case "none":
		return leaky.New(arena, threads), nil
	case "qsbr":
		return epoch.NewQSBR(arena, threads, epoch.Config{Threshold: cfg.Threshold}), nil
	case "rcu":
		return epoch.NewRCU(arena, threads, epoch.Config{Threshold: cfg.Threshold}), nil
	case "debra":
		return debra.New(arena, threads), nil
	case "hp":
		return hp.New(arena, threads, hp.Config{Slots: req.Slots, Threshold: cfg.Threshold}), nil
	case "ibr":
		return era.NewIBR(arena, threads, era.Config{Threshold: cfg.Threshold, EraFreq: cfg.EraFreq}), nil
	case "he":
		return era.NewHE(arena, threads, era.Config{Slots: req.Slots, Threshold: cfg.Threshold, EraFreq: cfg.EraFreq}), nil
	case "nbr", "nbr+":
		return core.New(arena, threads, core.Config{
			Plus:    name == "nbr+",
			BagSize: cfg.BagSize, LoFraction: cfg.LoFraction,
			ScanFreq: cfg.ScanFreq, Slots: req.Reservations, Signals: sig,
		}), nil
	}
	return nil, CheckScheme(name)
}
