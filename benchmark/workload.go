package main

import "nbr"

// workers is the closed-loop client count of every workload: two goroutines
// that each wait for one operation to return before issuing the next. It is
// fixed at the host's 2 CPUs and stays 2 on bigger hosts so recorded numbers
// remain comparable; main refuses to run with fewer CPUs.
const workers = 2

// workload is one named input shape. Everything a later issue may refer to
// is named here; README.md carries the long-form rationale.
type workload struct {
	name string
	why  string

	scheme string
	// structures are attached in this order. Steady workloads drive the
	// first one; session-churn drives both (sessions list, catalog tree).
	structures []string
	opts       nbr.RuntimeOptions

	keys    uint64 // key space is [1, keys]
	prefill int    // successful inserts before the timed part (steady only)
	// Operation mix of the steady loop, in percent; the rest are deletes.
	containsPct, insertPct uint64

	// session selects the lease-per-session loop: op = one Runtime.With
	// envelope around the examples/server request body.
	session bool
	// memShare is the share of this workload's time that waits on
	// cache-missing loads and therefore follows the calMem calibration kernel
	// instead of calALU (calibrate.go): treeMemShare for the 12.8 MB trees, 0
	// for the cache-resident rest.
	memShare float64
	// latEvery is the latency sampling period in ops (power of two): every
	// 32nd op on the sub-microsecond tree workloads, so clock reads stay
	// under 1% of the loop and a trial still collects ≥100 k samples on a
	// half-speed host; every op elsewhere.
	latEvery uint64
}

// workloads is the gating lineup, in the order trials interleave.
var workloads = []workload{
	{
		name:       "tree-update",
		why:        "dgt tree under nbr+, 200k keys, 50% insert / 50% delete: the paper's headline cell, where core, sigsim, scans and mem free/alloc take their largest share",
		scheme:     "nbr+",
		structures: []string{"dgt"},
		keys:       200_000,
		prefill:    100_000,
		insertPct:  50,
		memShare:   treeMemShare,
		latEvery:   32,
	},
	{
		name:        "list-read",
		why:         "lazylist under nbr+, 20k keys, 90% contains: ~5k Protect polls per op and an idle reclamation pipeline, so a reclamation change must not move it and a barrier change shows only here",
		scheme:      "nbr+",
		structures:  []string{"lazylist"},
		keys:        20_000,
		prefill:     10_000,
		containsPct: 90,
		insertPct:   5,
		latEvery:    1,
	},
	{
		name:       "session-churn",
		why:        "examples/server request body on 64 keys inside Runtime.With: every op acquires, quiesces and releases a lease, so the lease/registry/recovery path is most of the time",
		scheme:     "nbr+",
		structures: []string{"lazylist", "dgt"},
		opts:       nbr.RuntimeOptions{MaxThreads: 12, BagSize: 512},
		keys:       64,
		session:    true,
		latEvery:   1,
	},
	{
		name:       "tree-update-hp",
		why:        "tree-update under hp: same ds, mem and registry with none of core/sigsim, so a core or sigsim change predicts no move here and a mem or ds change moves both",
		scheme:     "hp",
		structures: []string{"dgt"},
		keys:       200_000,
		prefill:    100_000,
		insertPct:  50,
		memShare:   treeMemShare,
		latEvery:   32,
	},
}

func allWorkloads() []*workload {
	wls := make([]*workload, len(workloads))
	for i := range workloads {
		wls[i] = &workloads[i]
	}
	return wls
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// splitmix64 is the benchmark's only randomness: the program under test
// receives generated keys, never the seed.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// streamSeed derives worker w's private stream for one trial from the run
// seed, so workers never share keys by construction and every trial of a run
// sees different (but reproducible) inputs.
func streamSeed(seed uint64, trial, w int) uint64 {
	s := seed ^ uint64(trial+1)<<32 ^ uint64(w+1)<<48
	splitmix64(&s)
	return s
}

// setAPI is the operation surface shared by the public *nbr.Set (G =
// *nbr.Lease) and the internal structures the traced twin drives (G =
// smr.Guard), so both passes run the same loops.
type setAPI[G any] interface {
	Insert(G, uint64) bool
	Delete(G, uint64) bool
	Contains(G, uint64) bool
}

// tally counts the successful mutations of one worker on one set; the oracle
// checks prefill + inserts − deletes against Len().
type tally struct {
	inserts, deletes int64
}

// steadyOp issues the next operation of a steady workload's mix.
func steadyOp[G any](wl *workload, set setAPI[G], g G, r uint64, t *tally) {
	key := r%wl.keys + 1
	switch pct := (r >> 40) % 100; {
	case pct < wl.containsPct:
		set.Contains(g, key)
	case pct < wl.containsPct+wl.insertPct:
		if set.Insert(g, key) {
			t.inserts++
		}
	default:
		if set.Delete(g, key) {
			t.deletes++
		}
	}
}

// sessionSteps is the examples/server request body: 8 steps rotating through
// insert-both / delete-session / delete-catalog / lookup-both, under one
// lease. key and kind come from the worker's stream.
func sessionSteps[G any](sessions, catalog setAPI[G], g G, key, kind uint64, t *[2]tally) {
	for i := uint64(0); i < 8; i++ {
		k := key + i*131
		switch (kind + i) % 4 {
		case 0:
			if sessions.Insert(g, k) {
				t[0].inserts++
			}
			if catalog.Insert(g, k*2+1) {
				t[1].inserts++
			}
		case 1:
			if sessions.Delete(g, k) {
				t[0].deletes++
			}
		case 2:
			if catalog.Delete(g, k*2+1) {
				t[1].deletes++
			}
		default:
			sessions.Contains(g, k)
			catalog.Contains(g, k*2+1)
		}
	}
}
