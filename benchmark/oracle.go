package main

import (
	"fmt"

	"nbr"
)

// oracleView is the part of a system the verification oracle reads. The
// public *nbr.Runtime satisfies it as is; the traced twin adapts its
// registry, hub and scheme to the same shape, so one oracle judges every
// trial of every pass.
type oracleView interface {
	GarbageBound() int
	StagedFrees() int
	Drain() error
	Stats() nbr.Stats
	FallbackReuses() uint64
}

// setView is the quiescent surface of one attached structure.
type setView interface {
	Validate() error
	Len() int
}

// verify is the single oracle shared by every trial. It runs after the
// workers released their leases and returns one line per violated check:
//
//   - every garbage sample stayed within GarbageBound();
//   - release left nothing in the hub's free staging;
//   - Drain succeeds and leaves Retired == Freed;
//   - no slot was reused on the unaged fallback;
//   - every structure validates;
//   - per structure, prefill + successful inserts − successful deletes == Len().
func verify(v oracleView, sets []setView, ws []worker, garbagePeak uint64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if b := v.GarbageBound(); b != nbr.Unbounded && garbagePeak > uint64(b) {
		fail("sampled garbage %d exceeded GarbageBound() %d", garbagePeak, b)
	}
	if n := v.StagedFrees(); n != 0 {
		fail("StagedFrees() = %d after every lease was released", n)
	}
	if err := v.Drain(); err != nil {
		fail("Drain(): %v", err)
	}
	if st := v.Stats(); st.Retired != st.Freed {
		fail("after Drain: retired %d != freed %d", st.Retired, st.Freed)
	}
	if n := v.FallbackReuses(); n != 0 {
		fail("FallbackReuses() = %d", n)
	}
	for i, set := range sets {
		if err := set.Validate(); err != nil {
			fail("set %d Validate(): %v", i, err)
		}
		var want int64
		for j := range ws {
			want += ws[j].tallies[i].inserts - ws[j].tallies[i].deletes
			if i == 0 {
				want += ws[j].prefilled
			}
		}
		if got := int64(set.Len()); got != want {
			fail("set %d conservation: prefill+inserts-deletes = %d, Len() = %d", i, want, got)
		}
	}
	return bad
}
