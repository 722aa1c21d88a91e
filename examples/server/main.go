// Server: a real net/http service on one shared reclamation runtime.
//
// A production Go service hosts several concurrent structures — here a
// "sessions" list and a "catalog" tree — and serves each request on a
// short-lived handler goroutine. This example measures exactly the regime
// the runtime layer exists for: one nbr.Runtime owns one lease registry,
// one reclamation scheme and one shared arena; every HTTP request runs
// inside Runtime.With — ONE lease acquired with the request's deadline
// (blocking admission, not spin-retry), both structures driven under it,
// and the release guaranteed even if the handler panics.
//
// Two lease-management modes compare the cost of membership churn:
//
//   - lease (default): acquire/release per request — thousands of slot
//     recycles, departing handlers orphan mid-protocol state, the round
//     guarantee holds via forced scan rounds;
//   - pool: a sync.Pool of long-lived leases, the classic Go baseline —
//     requests reuse leases without touching the registry, isolating the
//     per-request acquire/release overhead the lease mode pays.
//
// The load generator drives the server over real HTTP (loopback TCP), then
// the runtime drains: Retired == Freed across both structures, the
// aggregated garbage bound respected throughout (checked live), both
// structures valid. Any violation exits non-zero, which is how CI runs this
// as a smoke test.
//
// What nbrvet would catch here: handing a request's lease to a background
// goroutine, parking it in a struct that outlives the request, or using it
// after Release are all static findings (leaseescape, guardderef). The one
// deliberate exception in this file — the pool mode's leaseBox, which caches
// leases across requests by design — carries a justified //nbr:allow
// annotation at the store; testdata/badusage.go shows the unjustified
// versions, and DESIGN.md §13 the full rule set.
//
// Run with: go run ./examples/server            (or -mode pool, -requests 50000)
//
// Profiling the admission knee: -debug mounts the runtime's observability
// surface on the serving mux — /debug/nbr (JSON: stats, bounds, waiters,
// latency-histogram quantiles, last-K flight-recorder events), /debug/pprof
// and /debug/vars — and every request's CPU samples carry pprof labels
// (scheme, structure), so a profile splits reclamation cost per structure.
// Two commands find where admission starts to queue:
//
//	go run ./examples/server -debug -addr 127.0.0.1:8080 -requests 1000000 &
//	go tool pprof 'http://127.0.0.1:8080/debug/pprof/profile?seconds=10'
//
// and while that profile collects, `curl -s 127.0.0.1:8080/debug/nbr | jq
// '.recorder.hists'` reads the admission-wait p99 climbing in real time —
// the knee is where admit_wait p99 leaves the microsecond buckets while
// req/s stops rising.
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nbr"
)

// service is the shared state every handler touches: one runtime, two
// structures, and the lease-management strategy under test.
type service struct {
	rt       *nbr.Runtime
	sessions *nbr.Set // lazylist: short-lived per-user session keys
	catalog  *nbr.Set // dgt BST: the larger lookup structure
	mode     string

	// pool mode: long-lived leases recycled across requests without
	// registry traffic. Each pooled lease rides in a leaseBox carrying a
	// finalizer, because sync.Pool may drop entries at any GC — a dropped
	// lease would otherwise strand its registry slot (held but
	// unreachable) and monotonically shrink capacity mid-run. The
	// finalizer releases the slot back instead; Release is idempotent, so
	// the shutdown sweep over all remaining leases stays safe.
	pool sync.Pool
	mu   sync.Mutex
	all  []*nbr.Lease

	served  atomic.Uint64
	rejects atomic.Uint64
}

// leaseBox wraps a pooled lease so GC eviction from the sync.Pool frees
// the registry slot rather than stranding it.
type leaseBox struct {
	l *nbr.Lease
}

// with runs the request body under a lease. Lease mode is Runtime.With —
// the panic-safe acquire/run/release envelope, so a handler that crashes or
// overruns can never strand a slot. Pool mode keeps the manual lifecycle on
// purpose: it is the sync.Pool baseline the envelope is compared against.
func (s *service) with(ctx context.Context, fn func(*nbr.Lease) error) error {
	if s.mode == "pool" {
		b, ok := s.pool.Get().(*leaseBox)
		if !ok || b == nil {
			l, err := s.rt.AcquireCtx(ctx)
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.all = append(s.all, l)
			s.mu.Unlock()
			//nbr:allow leaseescape — the session pool caches leases across requests by design; the box is checked out by one handler at a time and a finalizer releases stragglers
			b = &leaseBox{l: l}
			// The box is only unreachable once neither the pool nor a handler
			// holds it, so the release can never race an in-flight request.
			runtime.SetFinalizer(b, func(b *leaseBox) { b.l.Release() })
		}
		defer s.pool.Put(b)
		return fn(b.l)
	}
	return s.rt.With(ctx, fn)
}

// handle is the one HTTP endpoint: /op?key=N&kind=M mixes inserts, deletes
// and lookups across both structures under a single lease — the
// one-lease-covers-all-structures contract in the request path.
func (s *service) handle(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
	defer cancel()

	var key, kind uint64
	fmt.Sscanf(r.URL.Query().Get("key"), "%d", &key)
	fmt.Sscanf(r.URL.Query().Get("kind"), "%d", &kind)
	if key == 0 {
		key = 1
	}

	// A request session: touch the session list and the catalog tree under
	// the same lease, delete-heavy so retire traffic flows constantly.
	err := s.with(ctx, func(l *nbr.Lease) error {
		var hits int
		for i := uint64(0); i < 8; i++ {
			k := key + i*131
			switch (kind + i) % 4 {
			case 0:
				s.sessions.Insert(l, k)
				s.catalog.Insert(l, k*2+1)
			case 1:
				s.sessions.Delete(l, k)
			case 2:
				s.catalog.Delete(l, k*2+1)
			default:
				if s.sessions.Contains(l, k) {
					hits++
				}
				if s.catalog.Contains(l, k*2+1) {
					hits++
				}
			}
		}
		s.served.Add(1)
		fmt.Fprintf(w, "ok hits=%d tid=%d\n", hits, l.Tid())
		return nil
	})
	if err != nil {
		s.rejects.Add(1)
		http.Error(w, "admission: "+err.Error(), http.StatusServiceUnavailable)
	}
}

func main() {
	var (
		requests   = flag.Int("requests", 20_000, "HTTP requests to drive")
		clients    = flag.Int("clients", 24, "concurrent HTTP clients (more than lease slots: admission queues)")
		keyRange   = flag.Uint64("keys", 4096, "key range")
		maxThreads = flag.Int("max-threads", 12, "lease-registry capacity shared by both structures")
		mode       = flag.String("mode", "lease", "lease management: 'lease' (acquire per request) or 'pool' (sync.Pool baseline)")
		debug      = flag.Bool("debug", false, "enable the flight recorder and mount /debug/nbr, /debug/pprof and /debug/vars on the serving mux")
		addr       = flag.String("addr", "127.0.0.1:0", "listen address (an explicit port makes -debug endpoints curl-able from outside)")
	)
	flag.Parse()
	if *mode != "lease" && *mode != "pool" {
		fmt.Fprintln(os.Stderr, "server: -mode must be 'lease' or 'pool'")
		os.Exit(2)
	}

	rt, err := nbr.NewRuntime(nbr.RuntimeOptions{
		Scheme:     "nbr+",
		MaxThreads: *maxThreads,
		BagSize:    512,
	})
	check(err)
	svc := &service{rt: rt, mode: *mode}
	svc.sessions, err = rt.NewSet("lazylist")
	check(err)
	svc.catalog, err = rt.NewSet("dgt")
	check(err)
	bound := rt.GarbageBound()
	fmt.Printf("runtime: %v under %s, %d lease slots shared, aggregated garbage bound %d records, mode=%s\n",
		rt.Structures(), rt.Scheme(), rt.MaxThreads(), bound, *mode)

	// A real HTTP server on loopback TCP — requests cross the network stack,
	// handlers run on per-connection goroutines.
	ln, err := net.Listen("tcp", *addr)
	check(err)
	mux := http.NewServeMux()
	mux.HandleFunc("/op", svc.handle)
	if *debug {
		// The observability surface rides the serving mux, not a side
		// listener: what you profile is exactly what serves traffic. The
		// flight recorder goes on for the whole run (one predictable branch
		// per instrumented hot path), /debug/nbr serves the JSON snapshot,
		// expvar republishes the same document for /debug/vars scrapers, and
		// the pprof handlers are mounted explicitly because this mux is not
		// the DefaultServeMux the net/http/pprof import registers on.
		rt.Observe(true)
		rt.PublishExpvar("nbr")
		mux.Handle("/debug/nbr", rt.Debug())
		mux.Handle("/debug/vars", expvar.Handler())
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	if *debug {
		fmt.Printf("debug: %s/debug/nbr %s/debug/pprof/ %s/debug/vars\n", base, base, base)
	}

	// The live contract monitor: the aggregated bound must hold while
	// handlers come and go.
	var stopMon atomic.Bool
	var peak atomic.Uint64
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		for !stopMon.Load() {
			g := rt.Stats().Garbage()
			if g > peak.Load() {
				peak.Store(g)
			}
			if b := rt.GarbageBound(); b != nbr.Unbounded && g > uint64(b) {
				fmt.Fprintf(os.Stderr, "garbage bound violated mid-run: %d > %d\n", g, b)
				os.Exit(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Drive the load: *clients concurrent HTTP clients, per-request latency
	// sampled end to end (admission included).
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		latMu  sync.Mutex
		lats   []time.Duration
		failed atomic.Uint64
	)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *clients}}
	begin := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []time.Duration
			for {
				r := next.Add(1)
				if r > int64(*requests) {
					break
				}
				key := (uint64(r)*0x9e3779b97f4a7c15)%*keyRange + 1
				t0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/op?key=%d&kind=%d", base, key, r%4))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					continue
				}
				if r%16 == 0 {
					local = append(local, time.Since(t0))
				}
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(begin)

	// With -debug, self-check the observability endpoint over real HTTP
	// before shutdown: the snapshot must come back 200 and parseable, with
	// the recorder reporting itself enabled — the same check CI's smoke step
	// makes externally with curl.
	if *debug {
		resp, err := client.Get(base + "/debug/nbr")
		check(err)
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		check(err)
		var snap struct {
			Recorder struct {
				Enabled bool `json:"enabled"`
			} `json:"recorder"`
		}
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			fail("/debug/nbr self-check: status %d, %d bytes", resp.StatusCode, len(body))
		}
		if json.Unmarshal(body, &snap); !snap.Recorder.Enabled {
			fail("/debug/nbr self-check: recorder not reported enabled")
		}
		fmt.Printf("debug: /debug/nbr self-check ok (%d bytes)\n", len(body))
	}
	srv.Shutdown(context.Background())
	stopMon.Store(true)
	<-monDone

	// Pool mode: give every long-lived lease back before draining.
	svc.mu.Lock()
	for _, l := range svc.all {
		l.Release()
	}
	svc.mu.Unlock()

	check(rt.Drain())
	st := rt.Stats()
	ms := rt.MemStats()
	rps := float64(svc.served.Load()) / elapsed.Seconds()
	fmt.Printf("served %d requests in %v (%.0f req/s, %d admission rejects, %d transport failures)\n",
		svc.served.Load(), elapsed.Round(time.Millisecond), rps, svc.rejects.Load(), failed.Load())
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("request latency p50=%v p99=%v (end-to-end, admission included)\n",
			lats[len(lats)/2].Round(time.Microsecond), lats[len(lats)*99/100].Round(time.Microsecond))
	}
	fmt.Printf("retired=%d freed=%d garbage=%d (peak sampled %d, bound %d)\n",
		st.Retired, st.Freed, st.Garbage(), peak.Load(), rt.GarbageBound())
	snap := rt.Snapshot(0)
	fmt.Printf("forced scan rounds=%d, unaged-slot fallbacks=%d\n",
		snap.ForcedRounds, snap.FallbackReuses)
	fmt.Printf("sessions size=%d, catalog size=%d, live records=%d (%.1f KiB)\n",
		svc.sessions.Len(), svc.catalog.Len(), ms.Live, float64(ms.LiveBytes)/1024)

	if st.Retired != st.Freed {
		fail("leaked records across membership churn: retired %d != freed %d", st.Retired, st.Freed)
	}
	if b := rt.GarbageBound(); b != nbr.Unbounded && peak.Load() > uint64(b) {
		fail("sampled garbage peak %d exceeded the aggregated bound %d", peak.Load(), b)
	}
	if rt.FallbackReuses() != 0 {
		fail("lease admission used the unaged-slot fallback %d times; forced rounds must cover HTTP churn", rt.FallbackReuses())
	}
	check(svc.sessions.Validate())
	check(svc.catalog.Validate())
	fmt.Println("drained clean: every record retired by a departed handler was reclaimed")
}

func check(err error) {
	if err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "server: "+format+"\n", args...)
	os.Exit(1)
}
