// Package dstest is the shared correctness suite for the data structures in
// the harness. Each structure runs the same suites against every
// reclamation scheme the applicability matrix admits:
//
//   - sequential: results match a reference map model;
//   - concurrent: mixed workload under a key-conservation law — for every
//     key, successful inserts minus successful deletes must equal final
//     membership, which any non-linearizable interleaving or lost update
//     violates;
//   - churn: the same law on a tiny key range, maximizing contention,
//     recycling and ABA pressure (stale handles panic via the generation
//     check, so an unsafe scheme integration cannot pass silently);
//   - stall: one thread stalls mid-operation while others churn, asserting
//     the paper's P2 split — bounded garbage for NBR/NBR+/HP/IBR/HE,
//     unbounded growth for QSBR/RCU/DEBRA — and that a stalled NBR thread
//     is neutralized when it resumes;
//   - bound: the live GarbageBound contract — delete-heavy churn under a
//     deliberately tiny bag while a sampler races Stats().Garbage() against
//     the scheme's declared bound, so an oversized splice (a Harris marked
//     chain, an ABTree subtree) that outruns a watermark check is caught
//     in the act, not averaged away;
//   - lease: dynamic-membership churn — more workers than slots, each
//     session acquiring and releasing mid-traffic, with a recycled-tid
//     aliasing detector and a drain to zero orphans;
//   - kill: the same driver with holder deaths — holders panic or wedge
//     with the lease held, a reaper revokes the wedged ones through the
//     shared recovery path from a foreign goroutine, and the registry must
//     come back whole: every slot reusable, zombie releases counted as
//     no-ops, drain to Retired == Freed;
//   - grown: threads fill the structure until its pool commits a second
//     slab mid-traffic, empty it, and run the churn suite on the grown pool,
//     where recycled slots come from both sides of the slab boundary.
package dstest

import (
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"nbr/internal/catalog"
	"nbr/internal/mem"
	"nbr/internal/obs"
	"nbr/internal/sigsim"
	"nbr/internal/smr"
)

// Instance is one data structure wired to its arena; a factory fills in Set
// and Arena.
type Instance = catalog.Instance

// Factory creates instances of one data structure for the suite.
type Factory struct {
	// Name must match the applicability-matrix entry (catalog.DSNames).
	Name string
	// New creates a set sized for the given number of threads.
	New func(threads int) Instance
	// Chain, when set, deterministically builds a marked-but-unspliced
	// chain of n nodes reachable from the structure's root (single-threaded
	// setup; the guard's tid owns the instance) and returns the number
	// built. The next search through the chain must splice and retire it
	// in one RetireBatch — the oversized-splice input the BoundChain suite
	// uses to reproduce the garbage-bound violation on every run instead
	// of relying on churn luck.
	Chain func(inst Instance, g smr.Guard, n int) int
	// ShuffledFill makes Grown fill the structure in large shuffled blocks
	// instead of its near-sorted default, which is what a sorted list needs
	// and a tree cannot take: one that never rebalances (dgt) grows as a
	// single spine, and one that does (abtree) sees every thread's insert
	// land in the same leaf.
	ShuffledFill bool
}

// TopBitKeys is the key set the marked-link structures' own tests add to
// their random traffic: pairs that differ only in bit 63 — which the hash
// map keeps outside the record, in the header word, and which a list ordered
// on a truncated or sign-confused compare would merge — and the top of the
// key space. All lie strictly between the sentinels.
var TopBitKeys = []uint64{1, 1 | 1<<63, 5, 5 | 1<<63, 1 << 63, 1<<63 - 1, 1<<64 - 2}

func newScheme(t *testing.T, name string, inst Instance, threads int) smr.Scheme {
	t.Helper()
	// Schemes are sized to the structure's declared announcement widths,
	// exactly as bench.Run constructs the measured configurations.
	s, err := catalog.NewSchemeFor(name, inst.Arena, threads, catalog.StressSchemeConfig(), inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// observe wires an enabled flight recorder into a freshly built scheme and
// its signal group, if any. The suites run with the recorder always on: the
// one-branch cost is irrelevant at test scale, and every bound violation
// then fails with a timeline.
func observe(sch smr.Scheme, threads int) *obs.Recorder {
	rec := obs.NewRecorder(threads)
	rec.Enable()
	sch.SetRecorder(rec)
	return rec
}

// dumpFile is where a violating suite leaves the flight-recorder tail for
// CI's artifact upload; the same tail also goes through t.Logf so the
// failure is diagnosable straight from the test output.
const dumpFile = "nbr-flight-recorder.dump"

// dumpRecorder is the dump-on-violation hook: called just before a bound or
// drain t.Fatalf, it prints the merged event tail — which names the stalled
// thread and its open read phase — and writes it next to the test binary for
// the CI artifact step.
func dumpRecorder(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	tail := rec.Tail(128)
	if tail == "" {
		return
	}
	t.Logf("%s", tail)
	_ = os.WriteFile(dumpFile, []byte(tail), 0o644) // best-effort: the artifact step tolerates absence
}

// watchBound holds the live GarbageBound contract: a background goroutine
// races the garbage count against the declared bound until the returned stop
// is called, which reports the last violating sample, if any. GarbageBound
// is monotone, so a bound read after the garbage sample can only be ≥ the
// bound at sampling time: garbage > bound is a true violation, never a race
// artifact.
func watchBound(garbage func() uint64, bound func() int) (stop func() (g uint64, b int, violated bool)) {
	var halt atomic.Bool
	var g uint64
	var b int
	var violated bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !halt.Load() {
			sample := garbage()
			if limit := bound(); limit != smr.Unbounded && sample > uint64(limit) {
				g, b, violated = sample, limit, true
			}
			runtime.Gosched()
		}
	}()
	return func() (uint64, int, bool) {
		halt.Store(true)
		<-done
		return g, b, violated
	}
}

// RunAll executes every suite × scheme combination for the factory.
func RunAll(t *testing.T, f Factory) {
	for _, scheme := range catalog.SchemeNames {
		if !catalog.Runnable(f.Name, scheme) {
			continue
		}
		scheme := scheme
		// Every instance the suites build for this scheme, for the era-table
		// check that closes the run.
		var made []Instance
		churned := false
		newInst := f.New
		f := f // this scheme's copy, building through the recorder below
		f.New = func(threads int) Instance {
			inst := newInst(threads)
			made = append(made, inst)
			return inst
		}
		t.Run("sequential/"+scheme, func(t *testing.T) { Sequential(t, f, scheme) })
		t.Run("concurrent/"+scheme, func(t *testing.T) { Concurrent(t, f, scheme, 6, 256); churned = true })
		t.Run("churn/"+scheme, func(t *testing.T) { Concurrent(t, f, scheme, 6, 8) })
		t.Run("stall/"+scheme, func(t *testing.T) { Stall(t, f, scheme) })
		t.Run("bound/"+scheme, func(t *testing.T) { Bound(t, f, scheme) })
		t.Run("lease/"+scheme, func(t *testing.T) { Lease(t, f, scheme) })
		t.Run("kill/"+scheme, func(t *testing.T) { Kill(t, f, scheme) })
		if f.Chain != nil {
			t.Run("boundchain/"+scheme, func(t *testing.T) { BoundChain(t, f, scheme) })
		}
		t.Run("grown/"+scheme, func(t *testing.T) { Grown(t, f, scheme) })
		t.Run("eratable/"+scheme, func(t *testing.T) { eraTables(t, scheme, made, churned) })
	}
}

// stampingSchemes lists the schemes that keep per-record era or epoch stamps
// (mem.Hdr): the only ones allowed to commit a pool's era headers.
var stampingSchemes = map[string]bool{
	"he": true, "ibr": true, "qsbr": true, "rcu": true,
}

// memStats returns the allocator statistics of the instance's pool.
func memStats(t *testing.T, inst Instance) mem.Stats {
	ms, ok := inst.Set.(interface{ MemStats() mem.Stats })
	if !ok {
		t.Fatalf("%T reports no MemStats", inst.Set)
	}
	return ms.MemStats()
}

// poolStats returns the allocator statistics of each of the instance's
// pools: one per record kind behind a mem.Pair, else the one pool's.
func poolStats(t *testing.T, inst Instance) []mem.Stats {
	if pair, ok := inst.Arena.(*mem.Pair); ok {
		return []mem.Stats{pair.Stats(0), pair.Stats(1)}
	}
	return []mem.Stats{memStats(t, inst)}
}

// eraTables closes a scheme's run over every instance its suites built: a
// scheme that stamps nothing must have left every pool's era headers
// uncommitted — its records cost their slot and nothing else — and a
// stamping scheme must have committed them wherever it churned, charging
// every live record of that pool its slot and a header.
func eraTables(t *testing.T, scheme string, made []Instance, churned bool) {
	stamped := 0
	for _, inst := range made {
		for _, st := range poolStats(t, inst) {
			if st.EraBytes == 0 {
				continue
			}
			stamped++
			if !stampingSchemes[scheme] {
				t.Fatalf("%s committed %d bytes of era headers; it writes no per-record stamps", scheme, st.EraBytes)
			}
			if want := st.Live * int64(st.SlotSize+unsafe.Sizeof(mem.Hdr{})); st.LiveBytes != want {
				t.Fatalf("LiveBytes = %d for %d live records of a %d-byte slot and a header each, want %d",
					st.LiveBytes, st.Live, st.SlotSize, want)
			}
		}
	}
	if stampingSchemes[scheme] && churned && stamped == 0 {
		t.Fatalf("%s ran the concurrent suite without committing era headers", scheme)
	}
}

// Sequential compares the structure against a map model under one thread.
func Sequential(t *testing.T, f Factory, scheme string) {
	inst := f.New(1)
	g := newScheme(t, scheme, inst, 1).Guard(0)
	model := make(map[uint64]bool)
	rng := rand.New(rand.NewSource(42))
	const keys = 64
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	for i := 0; i < ops; i++ {
		key := uint64(rng.Intn(keys)) + 1
		switch rng.Intn(3) {
		case 0:
			if got, want := inst.Set.Insert(g, key), !model[key]; got != want {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, key, got, want)
			}
			model[key] = true
		case 1:
			if got, want := inst.Set.Delete(g, key), model[key]; got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, key, got, want)
			}
			delete(model, key)
		case 2:
			if got, want := inst.Set.Contains(g, key), model[key]; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, want %v", i, key, got, want)
			}
		}
	}
	size := 0
	for _, present := range model {
		if present {
			size++
		}
	}
	if got := inst.Set.Len(); got != size {
		t.Fatalf("Len = %d, model = %d", got, size)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Concurrent churns `threads` goroutines over `keys` keys and checks the
// conservation law plus structural invariants.
func Concurrent(t *testing.T, f Factory, scheme string, threads int, keys int) {
	inst := f.New(threads)
	churn(t, inst, newScheme(t, scheme, inst, threads), threads, keys)
}

// churn is Concurrent's body on a given instance and scheme; the structure
// must be empty when it starts.
func churn(t *testing.T, inst Instance, sch smr.Scheme, threads int, keys int) {
	ops := 2500
	if testing.Short() {
		ops = 500
	}
	type tally struct{ ins, del int }
	tallies := make([]map[uint64]*tally, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			local := make(map[uint64]*tally)
			tallies[tid] = local
			rng := rand.New(rand.NewSource(int64(tid)*7919 + 1))
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(keys)) + 1
				tl := local[key]
				if tl == nil {
					tl = &tally{}
					local[key] = tl
				}
				switch rng.Intn(4) {
				case 0, 1:
					if inst.Set.Insert(g, key) {
						tl.ins++
					}
				case 2:
					if inst.Set.Delete(g, key) {
						tl.del++
					}
				case 3:
					inst.Set.Contains(g, key)
				}
			}
		}(tid)
	}
	wg.Wait()

	g := sch.Guard(0)
	total := 0
	for key := uint64(1); key <= uint64(keys); key++ {
		ins, del := 0, 0
		for _, local := range tallies {
			if tl := local[key]; tl != nil {
				ins += tl.ins
				del += tl.del
			}
		}
		net := ins - del
		if net != 0 && net != 1 {
			t.Fatalf("key %d: conservation violated, ins=%d del=%d", key, ins, del)
		}
		if got := inst.Set.Contains(g, key); got != (net == 1) {
			t.Fatalf("key %d: present=%v but ins-del=%d", key, got, net)
		}
		total += net
	}
	if got := inst.Set.Len(); got != total {
		t.Fatalf("Len = %d, conservation says %d", got, total)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Drain to zero: with every thread draining, each scheme that frees at
	// all frees everything at this quiescent point.
	tids := make([]int, threads)
	for tid := range tids {
		tids[tid] = tid
	}
	drained := sch.Quiesce(tids...)
	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	if !drained && sch.Name() != "none" {
		t.Fatalf("drain over all %d threads left %d of %d retired records unfreed", threads, st.Garbage(), st.Retired)
	}
}

// boundedSchemes lists the schemes that must declare a finite GarbageBound
// (the paper's P2 claimants); every other scheme must report smr.Unbounded.
var boundedSchemes = map[string]bool{
	"nbr": true, "nbr+": true, "hp": true, "he": true, "ibr": true,
}

// Bound is the live garbage-bound contract check. The configuration is an
// oversized-batch stress: the bag/threshold is tiny relative to the chains
// and subtrees the structure unlinks (delete-heavy traffic on a small key
// range keeps marked chains and underfull merges coming), so any retire
// path that defers its watermark check past a whole splice overshoots the
// declared bound by the splice length — which the concurrent sampler, not
// just the final tally, must never observe.
func Bound(t *testing.T, f Factory, scheme string) {
	const threads = 6
	inst := f.New(threads)
	cfg := catalog.StressSchemeConfig()
	cfg.BagSize = 32 // N·R ≤ 18 stays below; one splice can span the bag
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, threads, cfg, inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	rec := observe(sch, threads)
	bound := sch.GarbageBound()
	if boundedSchemes[scheme] {
		if bound == smr.Unbounded || bound <= 0 {
			t.Fatalf("%s must declare a finite positive GarbageBound, got %d", scheme, bound)
		}
	} else if bound != smr.Unbounded {
		t.Fatalf("%s must declare smr.Unbounded, got %d", scheme, bound)
	}

	stopWatch := watchBound(func() uint64 { return sch.Stats().Garbage() }, sch.GarbageBound)

	ops := 4000
	if testing.Short() {
		ops = 800
	}
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			rng := rand.New(rand.NewSource(int64(tid)*104729 + 3))
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(64)) + 1
				// Delete-heavy: 1 insert refills for 2 delete attempts, so
				// unlink (and splice) traffic dominates.
				if rng.Intn(3) == 0 {
					inst.Set.Insert(g, key)
				} else {
					inst.Set.Delete(g, key)
				}
			}
		}(tid)
	}
	wg.Wait()
	if g, b, violated := stopWatch(); violated {
		dumpRecorder(t, rec)
		t.Fatalf("garbage-bound contract violated: sampled %d > declared bound %d", g, b)
	}

	st := sch.Stats()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	// The final quiescent sample.
	if bound = sch.GarbageBound(); bound != smr.Unbounded && st.Garbage() > uint64(bound) {
		dumpRecorder(t, rec)
		t.Fatalf("garbage-bound contract violated at quiescence: %d > declared bound %d",
			st.Garbage(), bound)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BoundChain is the deterministic oversized-splice regression: a
// single-threaded setup builds a marked chain several times longer than the
// scheme's entire garbage bound, then one search splices it in one
// RetireBatch. A retire path that defers its watermark check past the whole
// splice ends the call with the chain still in its bag — garbage above the
// declared bound on every run, no churn luck required (ROADMAP item from
// PR 3; the scheme-seam variant lives in internal/core).
func BoundChain(t *testing.T, f Factory, scheme string) {
	const threads = 2
	inst := f.New(threads)
	cfg := catalog.StressSchemeConfig()
	cfg.BagSize = 32 // one splice spans many bags
	sch, err := catalog.NewSchemeFor(scheme, inst.Arena, threads, cfg, inst.Set.Requirements())
	if err != nil {
		t.Fatal(err)
	}
	rec := observe(sch, threads)
	g := sch.Guard(0)

	n := 256
	if b := sch.GarbageBound(); b != smr.Unbounded && n < 3*b {
		n = 3 * b // the chain must dwarf the full declared bound
	}
	built := f.Chain(inst, g, n)
	if built < n {
		t.Fatalf("chain builder produced %d marked nodes, want %d", built, n)
	}

	// One search past the chain splices and retires it in one batch.
	if inst.Set.Contains(g, uint64(n)+1) {
		t.Fatalf("key %d must be absent", n+1)
	}

	st := sch.Stats()
	if st.Retired < uint64(built) {
		t.Fatalf("splice retired %d records, want at least the %d-node chain", st.Retired, built)
	}
	if bound := sch.GarbageBound(); bound != smr.Unbounded && st.Garbage() > uint64(bound) {
		dumpRecorder(t, rec)
		t.Fatalf("oversized splice outran the garbage bound: %d > %d", st.Garbage(), bound)
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Stall reproduces E2's stalled-thread scenario at test scale: the last
// thread begins an operation (announces/checkpoints) and goes to sleep while
// the others churn deletions.
//
//nbr:allow readphase — the stalled reader IS the fixture: the test goroutine deliberately parks inside an open read phase and orchestrates workers, assertions, and the wake-up around it; the harness itself is never neutralized, only the guard it holds is
func Stall(t *testing.T, f Factory, scheme string) {
	const workers = 4
	threads := workers + 1
	inst := f.New(threads)
	sch := newScheme(t, scheme, inst, threads)
	rec := observe(sch, threads)
	cfg := catalog.StressSchemeConfig()

	// The stalled thread enters an operation mid-read-phase and stops.
	stalled := sch.Guard(workers)
	stalled.BeginOp()
	stalled.BeginRead()

	ops := 3000
	if testing.Short() {
		ops = 600
	}
	var wg sync.WaitGroup
	for tid := 0; tid < workers; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			g := sch.Guard(tid)
			rng := rand.New(rand.NewSource(int64(tid) + 99))
			for i := 0; i < ops; i++ {
				key := uint64(rng.Intn(128)) + 1
				if i%2 == 0 {
					inst.Set.Insert(g, key)
				} else {
					inst.Set.Delete(g, key)
				}
			}
		}(tid)
	}
	wg.Wait()

	st := sch.Stats()
	garbage := st.Garbage()
	if st.Invalid() {
		t.Fatalf("stats invalid at quiescence (double-free accounting): freed %d > retired %d",
			st.Freed, st.Retired)
	}
	switch scheme {
	case "nbr", "nbr+":
		bound := sch.GarbageBound()
		if bound == smr.Unbounded {
			t.Fatalf("%s must declare a finite GarbageBound", scheme)
		}
		if garbage > uint64(bound) {
			// The timeline names the stalled thread: its ring shows a
			// read-begin with no read-end, listed in the open-phase footer.
			dumpRecorder(t, rec)
			t.Fatalf("bounded-garbage violation: %d > declared bound %d", garbage, bound)
		}
		// The stalled thread was signalled; it must be neutralized the
		// moment it resumes its read phase.
		woke := func() (hit bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(sigsim.Neutralized); !ok {
						panic(r)
					}
					hit = true
				}
			}()
			stalled.EndRead()
			return false
		}()
		if st.Signals > 0 && !woke {
			dumpRecorder(t, rec)
			t.Fatal("stalled thread resumed its read phase without neutralization")
		}
	case "hp", "ibr", "he":
		bound := sch.GarbageBound()
		if bound == smr.Unbounded {
			t.Fatalf("%s must declare a finite GarbageBound", scheme)
		}
		if garbage > uint64(bound) {
			dumpRecorder(t, rec)
			t.Fatalf("bounded-garbage violation: %d > declared bound %d", garbage, bound)
		}
		stalled.EndRead()
	case "qsbr", "rcu", "debra":
		if sch.GarbageBound() != smr.Unbounded {
			t.Fatalf("%s must declare smr.Unbounded", scheme)
		}
		if st.Retired > uint64(4*cfg.Threshold) && garbage < uint64(cfg.Threshold) {
			t.Fatalf("expected unbounded growth under a stalled thread, garbage=%d retired=%d",
				garbage, st.Retired)
		}
		stalled.EndRead()
	case "none":
		if garbage != st.Retired {
			t.Fatalf("leaky must never free: garbage=%d retired=%d", garbage, st.Retired)
		}
		stalled.EndRead()
	}
	stalled.EndOp()

	// After the stall clears, the unbounded schemes must drain. Every thread
	// must participate: epoch schemes need all registered threads to pass
	// through quiescent states (an idle thread that never announces blocks
	// QSBR forever, which is correct behaviour, not what we test here).
	if scheme == "qsbr" || scheme == "rcu" || scheme == "debra" {
		for i := 0; i < 800; i++ {
			for tid := 0; tid < threads; tid++ {
				g := sch.Guard(tid)
				key := uint64(i%128) + 1
				inst.Set.Insert(g, key)
				inst.Set.Delete(g, key)
			}
		}
		if after := sch.Stats(); after.Freed == st.Freed {
			t.Fatal("no reclamation progress after the stalled thread recovered")
		}
	}
	if err := inst.Set.Validate(); err != nil {
		t.Fatal(err)
	}
}
