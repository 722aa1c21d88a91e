package nbr

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRuntimeDebugHandler: /debug/nbr serves a parseable JSON snapshot whose
// counters, quantiles and event tail reflect real traffic. Its two inputs
// differ in one lease: with a second lease held through the retire burst,
// every reclamation signals that peer, and the signal group's posts must
// reach the timeline (the recorder Bind hands the scheme must reach its
// signal group too); alone, there is nobody to signal and no post.
func TestRuntimeDebugHandler(t *testing.T) {
	for _, peer := range []bool{false, true} {
		name := "alone"
		if peer {
			name = "peer-held"
		}
		t.Run(name, func(t *testing.T) { debugHandlerRun(t, peer) })
	}
}

func debugHandlerRun(t *testing.T, peer bool) {
	rt, err := NewRuntime(RuntimeOptions{Scheme: "nbr+", MaxThreads: 4, BagSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt.Observe(true)
	set, err := rt.NewSet("harris")
	if err != nil {
		t.Fatal(err)
	}
	if peer {
		held, err := rt.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		defer held.Release()
	}
	ctx := context.Background()
	if err := rt.With(ctx, func(l *Lease) error {
		for k := uint64(0); k < 400; k++ {
			set.Insert(l, k)
		}
		for k := uint64(0); k < 400; k++ {
			set.Delete(l, k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	rt.Debug().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nbr", nil))
	if rec.Code != 200 {
		t.Fatalf("debug handler status %d", rec.Code)
	}
	var snap struct {
		Scheme   string `json:"scheme"`
		Recorder struct {
			Enabled bool `json:"enabled"`
			Hists   []struct {
				Name  string `json:"name"`
				Count uint64 `json:"count"`
				P50ns int64  `json:"p50_ns"`
			} `json:"hists"`
			Events []struct {
				Ring string `json:"ring"`
				Code string `json:"code"`
			} `json:"events"`
		} `json:"recorder"`
		Stats struct {
			Retired uint64
			Freed   uint64
		} `json:"stats"`
		HubBursts     uint64 `json:"hub_bursts"`
		HubDispatches uint64 `json:"hub_dispatches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("debug snapshot not parseable: %v\n%s", err, rec.Body.String())
	}
	if snap.Scheme != "nbr+" || !snap.Recorder.Enabled {
		t.Fatalf("snapshot scheme=%q enabled=%v", snap.Scheme, snap.Recorder.Enabled)
	}
	if snap.Stats.Retired == 0 {
		t.Fatal("no retires recorded; the workload did not exercise reclamation")
	}
	// The hub's free-path amortization is on the operator's document, and the
	// typed accessor serves the same numbers: one structure, so every burst
	// the hub received left it as exactly one pool dispatch.
	if snap.HubBursts == 0 || snap.HubDispatches != snap.HubBursts {
		t.Fatalf("hub counters: %d bursts, %d dispatches; want equal and non-zero on one structure",
			snap.HubBursts, snap.HubDispatches)
	}
	if doc := rt.Snapshot(0); doc.HubBursts != snap.HubBursts || doc.Stats.Retired != snap.Stats.Retired {
		t.Fatalf("Snapshot() disagrees with the served document: %d bursts / %d retired vs %d / %d",
			doc.HubBursts, doc.Stats.Retired, snap.HubBursts, snap.Stats.Retired)
	}
	var leaseHold, readPhase uint64
	for _, h := range snap.Recorder.Hists {
		switch h.Name {
		case "lease_hold":
			leaseHold = h.Count
		case "read_phase":
			readPhase = h.Count
		}
	}
	if leaseHold == 0 || readPhase == 0 {
		t.Fatalf("histograms empty: lease_hold=%d read_phase=%d", leaseHold, readPhase)
	}
	if len(snap.Recorder.Events) == 0 {
		t.Fatal("event tail empty")
	}
	posted := false
	for _, e := range snap.Recorder.Events {
		posted = posted || e.Code == "signal-post"
	}
	if posted != peer {
		t.Fatalf("signal-post on the timeline = %v with a peer held = %v", posted, peer)
	}

	// The dump surface renders the same timeline as text.
	var sb strings.Builder
	rt.DumpRecorder(&sb, 32)
	if !strings.Contains(sb.String(), "read-begin") {
		t.Fatalf("DumpRecorder tail missing read-phase events:\n%s", sb.String())
	}
}

// TestRuntimeDebugConcurrent is the -race test for the Debug surface: 8
// lease-holding writers under live traffic while readers hammer the handler.
func TestRuntimeDebugConcurrent(t *testing.T) {
	rt, err := NewRuntime(RuntimeOptions{Scheme: "nbr+", MaxThreads: 8, BagSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt.Observe(true)
	set, err := rt.NewSet("harris")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				_ = rt.With(ctx, func(l *Lease) error {
					base := uint64(w * 1000)
					for k := base; k < base+50; k++ {
						set.Insert(l, k)
					}
					for k := base; k < base+50; k++ {
						set.Delete(l, k)
					}
					return nil
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := rt.Debug()
		for i := 0; i < 100; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/nbr", nil))
			if rec.Code != 200 || !json.Valid(rec.Body.Bytes()) {
				t.Errorf("concurrent debug read failed: status %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := rt.Drain(); err != nil {
		t.Fatal(err)
	}
}
