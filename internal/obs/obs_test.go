package obs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestNilRecorderIsInert: every method on a nil *Recorder is a no-op, since
// instrumented code holds plain *Recorder fields with no wiring checks.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Enable()
	r.Rec(0, EvAcquire, 1)
	r.Sys(EvScanBegin, 0)
	r.Adm(EvAdmitEnqueue, 0)
	r.Observe(HistReadPhase, 10)
	r.ObserveSince(HistReadPhase, 1)
	r.SampleRetire(42)
	r.NoteFree(42)
	if r.Clock() != 0 {
		t.Fatal("nil recorder clock must be 0")
	}
	if evs := r.Events(10); evs != nil {
		t.Fatalf("nil recorder has events: %v", evs)
	}
	if s := r.Snapshot(10); s.Enabled || len(s.Events) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
	if tail := r.Tail(10); tail != "" {
		t.Fatalf("nil recorder tail: %q", tail)
	}
}

// TestDisabledRecordsNothing: a wired-but-disabled recorder drops writes.
func TestDisabledRecordsNothing(t *testing.T) {
	r := NewRecorder(4)
	r.Rec(0, EvAcquire, 1)
	r.Observe(HistLeaseHold, 100)
	if r.Clock() != 0 {
		t.Fatal("disabled clock must be 0")
	}
	if evs := r.Events(0); len(evs) != 0 {
		t.Fatalf("disabled recorder captured %d events", len(evs))
	}
	if c := r.Hist(HistLeaseHold).Count(); c != 0 {
		t.Fatalf("disabled recorder counted %d observations", c)
	}
	// The 0 sentinel from a disabled Clock must never be observed later.
	t0 := r.Clock()
	r.Enable()
	r.ObserveSince(HistLeaseHold, t0)
	if c := r.Hist(HistLeaseHold).Count(); c != 0 {
		t.Fatalf("ObserveSince accepted the unmeasured sentinel: count=%d", c)
	}
}

// TestRingOverwriteKeepsOrder is the property test: write far more events
// than a ring holds, with a deterministic interleave across rings; overwrite
// must keep each ring's surviving events in write order, and the K-way merge
// must emit globally monotone timestamps.
func TestRingOverwriteKeepsOrder(t *testing.T) {
	const rings, writes = 4, 8 * RingSize
	r := NewRecorder(rings)
	r.Enable()
	rng := rand.New(rand.NewSource(1))
	next := make([]uint64, rings+2)
	for i := 0; i < writes; i++ {
		ring := rng.Intn(rings + 2)
		next[ring]++
		r.Rec(ring, EvReadBegin, next[ring]) // arg = per-ring sequence number
	}
	evs := r.Events(0)
	if len(evs) == 0 {
		t.Fatal("no events survived")
	}
	lastTS := int64(0)
	lastSeq := make(map[int]uint64)
	for _, e := range evs {
		if e.TS < lastTS {
			t.Fatalf("merge not monotone: %d after %d", e.TS, lastTS)
		}
		lastTS = e.TS
		if s, ok := lastSeq[e.Ring]; ok && e.Arg != s+1 {
			t.Fatalf("ring %d order broken by overwrite: seq %d after %d", e.Ring, e.Arg, s)
		}
		lastSeq[e.Ring] = e.Arg
	}
	// Overwrite keeps the most recent RingSize entries: each ring's survivors
	// must end at its final sequence number.
	for ring, seq := range lastSeq {
		if seq != next[ring] {
			t.Fatalf("ring %d lost its newest events: last survivor %d, wrote %d", ring, seq, next[ring])
		}
	}
	// Tail truncation returns the newest K, still monotone.
	tail := r.Events(10)
	if len(tail) != 10 || tail[len(tail)-1] != evs[len(evs)-1] {
		t.Fatalf("Events(10) is not the newest 10: got %d", len(tail))
	}
}

// TestRecorderConcurrent is the -race test: 8 writers hammering rings,
// histograms, and the garbage-age table while a reader snapshots.
func TestRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 8, 4096
	r := NewRecorder(writers)
	r.Enable()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Rec(w, EvReadBegin, uint64(i))
				r.Observe(HistReadPhase, int64(i))
				r.SampleRetire(uint64(w*perWriter + i + 1))
				r.NoteFree(uint64(w*perWriter + i + 1))
				r.Rec(w, EvReadEnd, uint64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := r.Snapshot(64)
			if _, err := json.Marshal(snap); err != nil {
				t.Errorf("snapshot not marshalable: %v", err)
				return
			}
			last := int64(0)
			for _, e := range r.Events(0) {
				if e.TS < last {
					t.Errorf("concurrent merge not monotone: %d after %d", e.TS, last)
					return
				}
				last = e.TS
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Hist(HistReadPhase).Count(); got != writers*perWriter {
		t.Fatalf("histogram lost observations: %d of %d", got, writers*perWriter)
	}
}

// TestGarbageAgeSampling: a retire-stamped handle freed later lands in the
// garbage-age histogram, and the table slot is recycled.
func TestGarbageAgeSampling(t *testing.T) {
	r := NewRecorder(1)
	r.Enable()
	for i := uint64(1); i <= gaSamples+4; i++ {
		r.SampleRetire(i) // the tail past gaSamples is dropped, not queued
	}
	if !r.Sampling() {
		t.Fatal("no samples outstanding after SampleRetire")
	}
	for i := uint64(1); i <= gaSamples+4; i++ {
		r.NoteFree(i)
	}
	if r.Sampling() {
		t.Fatal("samples leaked after NoteFree")
	}
	h := r.Hist(HistGarbageAge)
	if h.Count() != gaSamples {
		t.Fatalf("sampled %d ages, want %d", h.Count(), gaSamples)
	}
	if h.Quantile(0.5) <= 0 {
		t.Fatalf("garbage-age p50 not positive: %d", h.Quantile(0.5))
	}
	// Slots recycled: a fresh sample still fits.
	r.SampleRetire(99)
	if !r.Sampling() {
		t.Fatal("table did not recycle freed slots")
	}
}

// TestHistQuantile: a recorder histogram keeps the internal/hist contract
// through Observe — power-of-two bucket edges, max-tightening, the count/max
// accessors and the negative clamp (smr's TestQuantileWalkShared pins the
// agreement with the handoff histogram).
func TestHistQuantile(t *testing.T) {
	r := NewRecorder(1)
	r.Enable()
	h := r.Hist(HistReadPhase)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 90; i++ {
		r.Observe(HistReadPhase, 100) // bucket [64,128)
	}
	for i := 0; i < 10; i++ {
		r.Observe(HistReadPhase, 5000) // bucket [4096,8192)
	}
	if got := h.Quantile(0.5); got != 127 {
		t.Fatalf("p50 = %d, want 127, the largest value the bucket holds", got)
	}
	if got := h.Quantile(0.99); got != 5000 {
		t.Fatalf("p99 = %d, want max-tightened 5000", got)
	}
	if h.Count() != 100 || h.Max() != 5000 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	r.Observe(HistReadPhase, -5) // clamps, does not panic or wrap
	if h.Count() != 101 || h.Max() != 5000 {
		t.Fatal("negative value not recorded as zero")
	}
}

// TestWriteTailNamesOpenReadPhase: the dump names a thread whose read phase
// never ended — the diagnostic a stalled-reader bound violation needs.
func TestWriteTailNamesOpenReadPhase(t *testing.T) {
	r := NewRecorder(6)
	r.Enable()
	r.Rec(1, EvReadBegin, 0)
	r.Rec(1, EvReadEnd, 0)
	r.Rec(4, EvReadBegin, 0) // t4 stalls inside its read phase
	r.Sys(EvScanBegin, 1)
	tail := r.Tail(16)
	if !strings.Contains(tail, "open read phases") || !strings.Contains(tail, "t4") {
		t.Fatalf("tail does not name the open read phase:\n%s", tail)
	}
	if strings.Contains(tail, "t1\n") && !strings.Contains(tail, "read-end") {
		t.Fatalf("tail lost the closed phase:\n%s", tail)
	}
	if open := r.OpenReadPhases(); len(open) != 1 || open[0] != 4 {
		t.Fatalf("OpenReadPhases = %v, want [4]", open)
	}
}

// TestNeverEnabledHoldsNoRings: a recorder that was never switched on has
// built no rings and reports no events through any read path, while its ring
// numbering is already fixed for the writers that hold it.
func TestNeverEnabledHoldsNoRings(t *testing.T) {
	r := NewRecorder(4)
	r.Rec(2, EvReadBegin, 0) // disabled: dropped before any ring is needed
	if r.rings.Load() != nil {
		t.Fatal("a never-enabled recorder built its rings")
	}
	if evs := r.Events(0); evs != nil {
		t.Fatalf("Events = %v, want none", evs)
	}
	if open := r.OpenReadPhases(); open != nil {
		t.Fatalf("OpenReadPhases = %v, want none", open)
	}
	if s := r.Snapshot(16); s.Enabled || len(s.Events) != 0 || len(s.Hists) != NumHists {
		t.Fatalf("Snapshot = %+v, want disabled, no events, %d histograms", s, NumHists)
	}
	var sb strings.Builder
	r.WriteTail(&sb, 16)
	if got := sb.String(); !strings.HasPrefix(got, "flight recorder: no events") {
		t.Fatalf("WriteTail = %q", got)
	}
	if r.AdmissionRing() != 4 || r.SystemRing() != 5 || r.RingName(5) != "sys" || r.RingName(3) != "t3" {
		t.Fatalf("ring numbering: adm %d sys %d", r.AdmissionRing(), r.SystemRing())
	}
	r.Enable()
	r.Rec(2, EvReadBegin, 0)
	if open := r.OpenReadPhases(); len(open) != 1 || open[0] != 2 {
		t.Fatalf("after Enable: OpenReadPhases = %v, want [2]", open)
	}
}

// TestFirstEnableRace is the -race test of the lazy rings: several first
// Enables race writers and readers. Every writer that sees the recorder on
// must find whole rings, every reader sees none or all of them, and once
// everyone is done the rings hold what was written after the Enables.
func TestFirstEnableRace(t *testing.T) {
	const writers, perWriter = 4, 512
	for round := 0; round < 20; round++ {
		r := NewRecorder(writers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < writers; w++ {
			wg.Add(3)
			go func() {
				defer wg.Done()
				<-start
				r.Enable()
			}()
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < perWriter; i++ {
					r.Rec(w, EvReadBegin, uint64(i))
					r.Sys(EvScanEnd, uint64(i))
				}
			}(w)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 16; i++ {
					for _, e := range r.Events(0) {
						if e.Ring < 0 || e.Ring > r.SystemRing() || e.TS <= 0 {
							t.Errorf("torn event %+v", e)
							return
						}
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		r.Rec(0, EvReadEnd, 0)
		if evs := r.Events(1); len(evs) != 1 || evs[0].Code != EvReadEnd {
			t.Fatalf("round %d: last event %v, want read-end on t0", round, evs)
		}
	}
}
