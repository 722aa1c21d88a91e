package nbr

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"

	"nbr/internal/obs"
)

// This file is the Runtime's observability surface: the flight recorder
// toggle, the /debug/nbr JSON snapshot, expvar publication, and the
// dump-on-violation hook test harnesses print when a bound or drain
// assertion fails. The recorder itself (rings, histograms, the one-branch
// disabled path) lives in internal/obs; see DESIGN.md §15.

// Observe switches the runtime's flight recorder on or off. The runtime is
// created with the recorder wired but disabled: every instrumented hot path
// costs one predictable branch, and the recorder holds no event rings, until
// the first Observe(true) builds them. Enabling is safe at any time,
// including under live traffic; disabling keeps the rings for the next
// Observe(true).
func (rt *Runtime) Observe(on bool) {
	if on {
		rt.rec.Enable()
	} else {
		rt.rec.Disable()
	}
}

// DebugSnapshot is the /debug/nbr JSON document: the runtime's counter set,
// bounds and admission state, the shared arena's free-path amortization
// (reclamation bursts the hub received vs pool FreeBatch calls it issued —
// dispatches per burst stays at or under the number of structures however the
// retire stream interleaves owners), plus the recorder's histogram quantiles
// (indexed by the obs.Hist* constants) and last-K merged events.
type DebugSnapshot struct {
	Scheme          string       `json:"scheme"`
	Structures      []string     `json:"structures"`
	MaxThreads      int          `json:"max_threads"`
	ActiveThreads   int          `json:"active_threads"`
	Waiters         int          `json:"waiters"`
	GarbageBound    int          `json:"garbage_bound"`
	Garbage         int64        `json:"garbage"`
	HubBursts       uint64       `json:"hub_bursts"`
	HubDispatches   uint64       `json:"hub_dispatches"`
	ForcedRounds    uint64       `json:"forced_rounds"`
	ReapedLeases    uint64       `json:"reaped_leases"`
	RevokedReleases uint64       `json:"revoked_releases"`
	OrphansAdopted  uint64       `json:"orphans_adopted"`
	Stats           Stats        `json:"stats"`
	Mem             MemStats     `json:"mem"`
	Recorder        obs.Snapshot `json:"recorder"`
}

// debugEvents is how much merged timeline /debug/nbr and DumpRecorder show
// by default: enough to span a reclamation burst on every thread.
const debugEvents = 128

// Snapshot returns the document Debug and PublishExpvar serve, typed, with
// the last maxEvents merged flight-recorder events (0 for none): the one
// read path for harnesses and operators alike.
func (rt *Runtime) Snapshot(maxEvents int) DebugSnapshot {
	st, hub := rt.Stats(), rt.hub.Stats()
	return DebugSnapshot{
		Scheme:          rt.Scheme(),
		Structures:      rt.Structures(),
		MaxThreads:      rt.MaxThreads(),
		ActiveThreads:   rt.reg.Active().Count(),
		Waiters:         rt.reg.Waiters(),
		GarbageBound:    rt.GarbageBound(),
		Garbage:         int64(st.Retired) - int64(st.Freed),
		HubBursts:       hub.Bursts,
		HubDispatches:   hub.Dispatches,
		ForcedRounds:    rt.reg.ForcedRounds(),
		ReapedLeases:    rt.reg.ReapedLeases(),
		RevokedReleases: rt.reg.RevokedReleases(),
		OrphansAdopted:  rt.reg.OrphansAdopted(),
		Stats:           st,
		Mem:             rt.MemStats(),
		Recorder:        rt.rec.Snapshot(maxEvents),
	}
}

// Debug returns an http.Handler serving the runtime's observability snapshot
// as JSON: stats, bounds, admission state, histogram quantiles and the
// last-K merged flight-recorder events. Mount it wherever the service keeps
// its debug endpoints (examples/server mounts it at /debug/nbr behind
// -debug). The handler is safe under live traffic; with the recorder
// disabled it serves the counter set and an empty timeline.
func (rt *Runtime) Debug() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rt.Snapshot(debugEvents)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// PublishExpvar publishes the runtime's counter set (the same document
// Debug serves) under name in the process-wide expvar registry, so services
// already scraping /debug/vars pick the reclamation pipeline up with no new
// endpoint. Like expvar.Publish it panics if name is already published, so
// call it once per process per runtime.
func (rt *Runtime) PublishExpvar(name string) {
	expvar.Publish(name, expvar.Func(func() any {
		return rt.Snapshot(0) // counters and quantiles; no event tail
	}))
}

// DumpRecorder writes the merged flight-recorder event tail (at most max
// events; max <= 0 uses the same window as Debug) to w, followed by the
// open-read-phase summary. This is the dump-on-violation hook: when a bound
// or drain assertion fails, the harness prints a timeline that names the
// stalled thread instead of a bare counter mismatch.
func (rt *Runtime) DumpRecorder(w io.Writer, max int) {
	if max <= 0 {
		max = debugEvents
	}
	rt.rec.WriteTail(w, max)
}
