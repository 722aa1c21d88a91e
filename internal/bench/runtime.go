package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"nbr"
	"nbr/internal/catalog"
	"nbr/internal/obs"
)

// This file measures the shared-runtime regime on the runtime that ships:
// several structures attached to one nbr.Runtime — one arena hub, one scheme
// instance, one lease registry. The workload is lease-per-session over more
// workers than slots: every session is one Runtime.With — AcquireCtx's FIFO
// admission, the labelled envelope, the shared release path — churning every
// structure under a single lease, so the measurement includes admission, slot
// recycling, forced-round quarantine aging and the multi-owner free routing —
// the costs a service pays per request. Every counter and quantile in the
// result is read from the runtime's own debug document (Runtime.Snapshot).

// RuntimeWorkload is one multi-structure shared-runtime cell.
type RuntimeWorkload struct {
	Structures []string
	Scheme     string
	Slots      int // lease-registry capacity
	Workers    int // concurrent workers; > Slots oversubscribes admission
	KeyRange   uint64
	SessionOps int // operations per lease session, spread across structures
	Duration   time.Duration
	// Cfg carries the scheme knobs RuntimeOptions has; a Runtime sizes its
	// scheme's widths to the attached structures.
	Cfg catalog.SchemeConfig
	// Interleave selects the adversarial retire pattern: each session walks
	// the structures round-robin doing insert-then-delete pairs, so the
	// retire stream entering the shared bags alternates owners perfectly —
	// the worst case for the hub's free routing (every same-owner run has
	// length one). False keeps the mixed read/write service workload.
	Interleave bool
	// Stall selects the holder-death cell: every stallEvery-th session the
	// worker wedges with its lease held — after its last operation it arms
	// its own deadline at "now" and never releases — so the runtime's
	// watchdog revokes it (the shared recovery path, run on the deadline
	// timer's goroutine mid-measurement), and a zombie goroutine issues the
	// late Release once the reap has landed. The cell tracks the cost of
	// recycling reaped slots under load and records the recovery counters.
	Stall bool
}

// stallEvery is the holder-death cadence under Stall: one wedged session per
// this many completed ones, per worker — frequent enough that every slot sees
// reaped-slot recycling within a short run, rare enough that the cell still
// measures throughput rather than pure recovery.
const stallEvery = 8

// RuntimeResult is one measured shared-runtime cell: the point the snapshot
// records (every counter and quantile in it read from the runtime's own debug
// document after the post-run drain) plus what only reports and assertions
// need. Stats is the post-drain tally.
type RuntimeResult struct {
	RuntimePoint
	Ops   uint64
	Stats nbr.Stats
}

// RunRuntime executes one shared-runtime cell.
func RunRuntime(w RuntimeWorkload) (RuntimeResult, error) {
	if len(w.Structures) == 0 || w.Slots <= 0 || w.Workers <= 0 || w.SessionOps <= 0 || w.KeyRange < 2 || w.Duration <= 0 {
		return RuntimeResult{}, fmt.Errorf("bench: runtime cell needs Structures, Slots, Workers, SessionOps, KeyRange >= 2 and Duration")
	}
	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		Scheme: w.Scheme, MaxThreads: w.Slots,
		BagSize: w.Cfg.BagSize, LoFraction: w.Cfg.LoFraction, ScanFreq: w.Cfg.ScanFreq,
		Threshold: w.Cfg.Threshold, EraFreq: w.Cfg.EraFreq,
		SendSpin: w.Cfg.SendSpin, HandleSpin: w.Cfg.HandleSpin,
	})
	if err != nil {
		return RuntimeResult{}, fmt.Errorf("bench: %w", err)
	}
	sets := make([]*nbr.Set, len(w.Structures))
	for i, name := range w.Structures {
		if sets[i], err = rt.NewSet(name); err != nil {
			return RuntimeResult{}, fmt.Errorf("bench: %w", err)
		}
	}
	// The cell measures the reclamation pipeline in time as well as in
	// count, so the recorder is on for the whole run. The fixed-N workload
	// cells in workload.go deliberately stay recorder-free — their measured
	// trajectories predate the recorder and must not absorb even its
	// one-branch cost — but this cell's whole point is the pipeline's time
	// domain, so it pays the branch and reports the quantiles.
	rt.Observe(true)

	// Prefill each structure to half the key range.
	ctx := context.Background()
	if err := rt.With(ctx, func(l *nbr.Lease) error {
		seed := uint64(0x9e3779b97f4a7c15)
		for _, set := range sets {
			for n := 0; n < int(w.KeyRange/2); {
				if set.Insert(l, splitmix64(&seed)%w.KeyRange+1) {
					n++
				}
			}
		}
		return nil
	}); err != nil {
		return RuntimeResult{}, fmt.Errorf("bench: prefill: %w", err)
	}

	var (
		stop     atomic.Bool
		sessions atomic.Uint64
		failed   = make([]error, w.Workers)
	)
	// The zombies of a Stall cell: a wedged holder's lease arrives here, and
	// once the watchdog has revoked it the holder "wakes up late" and
	// releases — a counted no-op. The buffer is one wedge per slot; a wedge
	// that finds it full only waits for this goroutine, which always drains.
	zombies := make(chan *nbr.Lease, w.Slots)
	zombiesDone := make(chan struct{})
	go func() {
		defer close(zombiesDone)
		for l := range zombies {
			for !l.Revoked() {
				time.Sleep(50 * time.Microsecond)
			}
			l.Release()
		}
	}()

	garbagePeak := watchGarbage(time.Millisecond, func() uint64 { return rt.Stats().Garbage() })

	ops, elapsed := churn(w.Workers, w.Duration, &stop, func(wk int) (ops uint64) {
		rng := uint64(wk)*0x100000001b3 + 0x9e3779b97f4a7c15
		session := func(l *nbr.Lease) error {
			for i := 0; i < w.SessionOps; i++ {
				r := splitmix64(&rng)
				if w.Interleave {
					// Adversarial retires: round-robin the structures so
					// consecutive retired records never share an owner,
					// and pair insert/delete so nearly every op retires.
					set := sets[i%len(sets)]
					key := r%w.KeyRange + 1
					set.Insert(l, key)
					set.Delete(l, key)
					ops += 2
					continue
				}
				set := sets[r%uint64(len(sets))]
				key := (r>>16)%w.KeyRange + 1
				switch (r >> 8) % 4 {
				case 0, 1:
					set.Insert(l, key)
				case 2:
					set.Delete(l, key)
				default:
					set.Contains(l, key)
				}
				ops++
			}
			return nil
		}
		for n := 1; !stop.Load(); n++ {
			var err error
			if w.Stall && n%stallEvery == 0 {
				var l *nbr.Lease
				if l, err = rt.AcquireCtx(ctx); err == nil {
					_ = session(l) // never fails
					// Wedged: the holder's last act is arming its own
					// deadline, which orders its writes before the reap.
					l.SetDeadline(time.Now())
					//nbr:allow leaseescape — deliberate wedge: the holder never releases; the zombie goroutine issues its late Release after the watchdog's reap
					zombies <- l
				}
			} else {
				err = rt.With(ctx, session)
			}
			if failed[wk] = err; err != nil {
				break
			}
			sessions.Add(1)
		}
		return ops
	})
	close(zombies)
	<-zombiesDone
	peak := garbagePeak()
	if err := errors.Join(failed...); err != nil {
		return RuntimeResult{}, fmt.Errorf("bench: runtime session: %w", err)
	}

	// Drain the shared bags: the cell must end Retired == Freed, or the
	// runtime seam leaked records across structures. The document is read after the drain, so
	// the event tail shows the run's final state — in a healthy cell the
	// drain's scan rounds, in a stuck one the open read phase that pinned
	// the garbage.
	if err := rt.Drain(); err != nil {
		return RuntimeResult{}, fmt.Errorf("bench: drain: %w", err)
	}
	doc := rt.Snapshot(0)
	_, reservations := rt.Widths()
	aw, ga := doc.Recorder.Hists[obs.HistAdmissionWait], doc.Recorder.Hists[obs.HistGarbageAge]
	res := RuntimeResult{Ops: ops, Stats: doc.Stats, RuntimePoint: RuntimePoint{
		Structures: strings.Join(w.Structures, "+"), Scheme: w.Scheme,
		Slots: w.Slots, Workers: w.Workers, KeyRange: w.KeyRange,
		Interleaved: w.Interleave, Stall: w.Stall,
		Sessions: sessions.Load(), Freed: doc.Stats.Freed,
		BoundContract: BoundContract{Bound: doc.GarbageBound, GarbagePeak: peak},
		ForcedRounds:  doc.ForcedRounds,
		Drained:       doc.Stats.Retired == doc.Stats.Freed,
		HubBursts:     doc.HubBursts, HubDispatches: doc.HubDispatches,
		ScanEntries: w.Slots * reservations,
		Reaped:      doc.ReapedLeases, RevokedReleases: doc.RevokedReleases,
		OrphansAdopted: doc.OrphansAdopted,
		AdmitWaits:     aw.Count,
		AdmitWaitP50us: float64(aw.P50ns) / 1e3, AdmitWaitP99us: float64(aw.P99ns) / 1e3,
		GarbageAgeP50us: float64(ga.P50ns) / 1e3, GarbageAgeP99us: float64(ga.P99ns) / 1e3,
	}}
	res.Mops = float64(ops) / elapsed.Seconds() / 1e6
	if res.HubBursts > 0 {
		res.DispatchPerBurst = float64(res.HubDispatches) / float64(res.HubBursts)
	}
	var tail strings.Builder
	rt.DumpRecorder(&tail, 64)
	res.EventTail = tail.String()
	return res, nil
}
