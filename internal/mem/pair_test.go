package mem

import (
	"strings"
	"testing"
)

// countingPool is a pool that counts the FreeBatch calls routed to it.
type countingPool[T any] struct {
	*Pool[T]
	dispatches int
}

func (c *countingPool[T]) FreeBatch(tid int, ps []Ptr) {
	c.dispatches++
	c.Pool.FreeBatch(tid, ps)
}

// TestPairRouting pins the kind plumbing end to end: the two pools stamp
// their kinds under one tag, the Pair routes Free/Hdr/Valid on the kind, a
// mixed FreeBatch reaches both pools, and the kind shows in a handle's
// string.
func TestPairRouting(t *testing.T) {
	a, routers, leaves := NewPair[recB, recA](Config{MaxThreads: 1, Tag: 2})

	r, _ := routers.Alloc(0)
	l, _ := leaves.Alloc(0)
	if r.Kind() != 0 || l.Kind() != 1 || r.ArenaTag() != 2 || l.ArenaTag() != 2 {
		t.Fatalf("router %v and leaf %v: want kinds 0 and 1 under tag 2", r, l)
	}
	if r.Idx() != l.Idx() || r == l {
		t.Fatalf("both pools' first records share an index and differ by kind alone: %v, %v", r, l)
	}
	if !strings.Contains(l.String(), "kind:1") || strings.Contains(r.String(), "kind") {
		t.Fatalf("String: router %q, leaf %q", r.String(), l.String())
	}
	if !a.Valid(r) || !a.Valid(l.WithMark()) {
		t.Fatal("fresh handles must be valid through the Pair")
	}
	a.Hdr(l).SetBirth(7)
	if leaves.Hdr(l).Birth() != 7 || routers.Hdr(r).Birth() == 7 {
		t.Fatal("Pair.Hdr must reach the leaf pool's header and only it")
	}

	r2, _ := routers.Alloc(0)
	a.FreeBatch(0, []Ptr{l, r, r2})
	for _, p := range []Ptr{r, r2, l} {
		if a.Valid(p) {
			t.Fatalf("%v still valid after FreeBatch", p)
		}
	}
	if routers.Stats().Frees != 2 || leaves.Stats().Frees != 1 {
		t.Fatalf("frees routed wrong: routers %d, leaves %d (want 2, 1)", routers.Stats().Frees, leaves.Stats().Frees)
	}
	l2, _ := leaves.Alloc(0)
	a.Free(0, l2)
	if leaves.Valid(l2) || a.Stats(1).Frees != 2 || a.Stats(0).Frees != 2 {
		t.Fatal("Pair.Free must reach the leaf pool, and Stats(kind) report each pool")
	}
}

// TestKindMisroutePanics pins the release-side kind check: a handle freed
// into the pool of the other kind, bypassing the Pair, panics rather than
// corrupting a foreign slot — through Free and FreeBatch, either way round.
func TestKindMisroutePanics(t *testing.T) {
	_, routers, leaves := NewPair[recB, recA](Config{MaxThreads: 1})
	r, _ := routers.Alloc(0)
	l, _ := leaves.Alloc(0)
	for name, f := range map[string]func(){
		"leaf into routers (Free)":       func() { routers.Free(0, l) },
		"router into leaves (FreeBatch)": func() { leaves.FreeBatch(0, []Ptr{r}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "misroute") {
					t.Fatalf("%s: recovered %q, want the misroute panic", name, msg)
				}
			}()
			f()
		}()
	}
	if !routers.Valid(r) || !leaves.Valid(l) {
		t.Fatal("a refused free must leave both records live")
	}
}

// countingPair is a DGT-shaped Pair, a 32-byte router pool and a 16-byte leaf
// pool, whose pools count their dispatches.
func countingPair() (*Pair, *countingPool[recB], *countingPool[recA]) {
	_, r, l := NewPair[recB, recA](Config{MaxThreads: 1})
	routers, leaves := &countingPool[recB]{Pool: r}, &countingPool[recA]{Pool: l}
	return &Pair{pools: [2]kindPool{routers, leaves}}, routers, leaves
}

// TestPairBurstDispatches: a burst of one kind is one pool dispatch, a mixed
// burst two — one per kind however they interleave — and neither allocates.
func TestPairBurstDispatches(t *testing.T) {
	a, routers, leaves := countingPair()
	a.SizeCache(0, 64)
	ps := make([]Ptr, 0, 16)
	burst := func(mixed bool) {
		ps = ps[:0]
		for i := 0; i < 8; i++ {
			r, _ := routers.Alloc(0)
			ps = append(ps, r)
			if mixed {
				l, _ := leaves.Alloc(0)
				ps = append(ps, l)
			}
		}
		a.FreeBatch(0, ps)
	}
	for _, c := range []struct {
		name  string
		mixed bool
		want  int
	}{{"uniform", false, 1}, {"mixed", true, 2}} {
		before := routers.dispatches + leaves.dispatches
		burst(c.mixed)
		if got := routers.dispatches + leaves.dispatches - before; got != c.want {
			t.Fatalf("%s burst: %d pool dispatches, want %d", c.name, got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { burst(c.mixed) }); allocs != 0 {
			t.Fatalf("%s burst: %.1f allocs per burst, want 0", c.name, allocs)
		}
	}
}

// BenchmarkPairBurst is the Pair's rung, in the shape of a DGT tree's
// deletes: one thread slot, a 32-byte router pool and a 16-byte leaf pool
// behind one Pair, a retire stream of (router, leaf) pairs — what a delete
// retires — freed in bursts of 1024 records with that burst declared, as a
// scheme's sweep hands them over. An op is one pair allocated and freed;
// ns/record is half of it, and dispatch/burst is pool FreeBatch calls per
// burst (2: one per kind).
func BenchmarkPairBurst(b *testing.B) {
	const burst = 1024
	a, routers, leaves := countingPair()
	a.SizeCache(0, burst)
	ps := make([]Ptr, 0, burst)
	bursts := 0
	churn := func(pairs int) {
		for done := 0; done < pairs; done += len(ps) / 2 {
			ps = ps[:0]
			for i := 0; i < min(burst/2, pairs-done); i++ {
				r, _ := routers.Alloc(0)
				l, _ := leaves.Alloc(0)
				ps = append(ps, r, l)
			}
			a.FreeBatch(0, ps)
			bursts++
		}
	}
	churn(burst) // grow the pools' thread caches to their steady size
	routers.dispatches, leaves.dispatches, bursts = 0, 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	churn(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/record")
	b.ReportMetric(float64(routers.dispatches+leaves.dispatches)/float64(bursts), "dispatch/burst")
}
