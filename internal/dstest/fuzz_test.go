package dstest_test

import (
	"fmt"
	"testing"
	"time"

	"nbr/internal/catalog"
	"nbr/internal/smr"
)

// FuzzSetOps drives one structure under one scheme, single-threaded, through
// the operation sequence the input encodes, against a map oracle: every
// Insert, Delete and Contains must report what the oracle says, and the
// garbage must stay under the scheme's declared bound after every
// operation. At the end every oracle key must be found, Len must match,
// Validate must pass, and after four drains the reclamation counters must be
// whole at quiescence: never more freed than retired, and — for every scheme
// that frees — nothing left unfreed.
//
// Input: byte 0 picks the scheme (catalog.SchemeNames), byte 1 the
// structure (catalog.DSNames); a pair the paper's Table 1 does not run is
// skipped. Each following byte pair is one operation: the first byte's
// value mod 3 selects Insert, Delete or Contains, the second is the key
// minus one, so keys range over 1..256 — a small space, dense enough that
// deletes hit, and wide enough that an (a,b)-tree splits and merges.
//
// The reclamation settings are the smallest every scheme accepts, so bags
// fill, scans run and records are recycled within a few dozen operations.
// testdata/fuzz/FuzzSetOps holds one seed per runnable pair, so a plain
// `go test` replays the whole Table-1 matrix; `go test -fuzz FuzzSetOps
// -fuzztime 20s ./internal/dstest` searches beyond it.
func FuzzSetOps(f *testing.F) {
	const maxOps = 2048
	cfg := catalog.SchemeConfig{BagSize: 16, LoFraction: 0.5, ScanFreq: 2, Threshold: 8, EraFreq: 4}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		scheme := catalog.SchemeNames[int(in[0])%len(catalog.SchemeNames)]
		structure := catalog.DSNames[int(in[1])%len(catalog.DSNames)]
		if !catalog.Runnable(structure, scheme) {
			t.Skipf("%s under %s is not runnable", structure, scheme)
		}
		inst, err := catalog.NewDS(structure, 1)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := catalog.NewSchemeFor(scheme, inst.Arena, 1, cfg, inst.Req)
		if err != nil {
			t.Fatal(err)
		}
		// A single thread has no one to wait for: an operation that does not
		// return is a livelock, and crashing the process makes the fuzzer
		// keep the input that caused it.
		hung := time.AfterFunc(10*time.Second, func() {
			panic(fmt.Sprintf("%s/%s: operation sequence still running after 10s", structure, scheme))
		})
		defer hung.Stop()
		g, set := sch.Guard(0), inst.Set
		oracle := map[uint64]bool{}
		ops := in[2:]
		if len(ops) > 2*maxOps {
			ops = ops[:2*maxOps]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			key := uint64(ops[i+1]) + 1
			var got, want bool
			switch ops[i] % 3 {
			case 0:
				got, want = set.Insert(g, key), !oracle[key]
				oracle[key] = true
			case 1:
				got, want = set.Delete(g, key), oracle[key]
				delete(oracle, key)
			case 2:
				got, want = set.Contains(g, key), oracle[key]
			}
			if got != want {
				t.Fatalf("%s/%s op %d (%s %d) = %v, want %v",
					structure, scheme, i/2, [3]string{"Insert", "Delete", "Contains"}[ops[i]%3], key, got, want)
			}
			if b := sch.GarbageBound(); b != smr.Unbounded && sch.Stats().Garbage() > uint64(b) {
				t.Fatalf("%s/%s op %d: garbage %d over the declared bound %d",
					structure, scheme, i/2, sch.Stats().Garbage(), b)
			}
		}
		for key := range oracle {
			if !set.Contains(g, key) {
				t.Fatalf("%s/%s: key %d lost", structure, scheme, key)
			}
		}
		if got := set.Len(); got != len(oracle) {
			t.Fatalf("%s/%s: Len = %d, oracle holds %d", structure, scheme, got, len(oracle))
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", structure, scheme, err)
		}
		// The last operation's announcements (an NBR reservation, a hazard)
		// stand until the thread's next operation; clearing them is what a
		// lease release does before its recovery drains.
		sch.(smr.Quiescer).ResetSlot(0)
		for round := 0; round < 4; round++ {
			sch.(smr.Drainer).Drain(0)
		}
		st := sch.Stats()
		if st.Invalid() {
			t.Fatalf("%s/%s: freed %d > retired %d at quiescence", structure, scheme, st.Freed, st.Retired)
		}
		if scheme != "none" && st.Freed != st.Retired {
			t.Fatalf("%s/%s: %d of %d retired records unfreed after draining", structure, scheme, st.Retired-st.Freed, st.Retired)
		}
	})
}
