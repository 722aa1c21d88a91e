package mem

import (
	"sync"
	"testing"
)

// This file is the grouping equivalence property test: a Hub that groups a
// mixed burst by owner in place — and a Pair that groups it by record kind —
// must be observably identical — allocator-stats-exact — to a caller
// splitting every burst into per-owner FreeBatch calls itself, across
// adversarial interleavings and burst sizes. Only the order of the records within one owner's group may differ
// from the caller's (the in-place swap permutes the groups after the first),
// which no pool counter sees: Frees, Live, slab growth and every handle's
// Valid flip must agree.

// groupingPattern deterministically picks the owner of the i-th retired
// record: the interleavings that historically defeated run-splitting.
type groupingPattern struct {
	name  string
	owner func(i, k int) int
}

var groupingPatterns = []groupingPattern{
	{"round-robin", func(i, k int) int { return i % k }},
	{"runs-of-2", func(i, k int) int { return (i / 2) % k }},
	{"one-owner", func(i, k int) int { return 0 }},
	{"lcg", func(i, k int) int {
		x := uint64(i)*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(k))
	}},
}

// TestHubGroupingEquivalence drives a Hub and a reference set of standalone
// pools through identical logical free sequences and asserts the
// pool-visible outcomes are exactly equal.
func TestHubGroupingEquivalence(t *testing.T) {
	const k = 3
	groupingEquivalence(t, func() (Arena, []*Pool[recA], []*Pool[recA]) {
		h := NewHub(1)
		var pools, refs []*Pool[recA]
		for tag := 0; tag < k; tag++ {
			pools = append(pools, NewPool[recA](Config{MaxThreads: 1, Tag: h.NextTag()}))
			h.Attach(tag, pools[tag])
			refs = append(refs, NewPool[recA](Config{MaxThreads: 1, Tag: tag}))
		}
		return h, pools, refs
	}, Ptr.ArenaTag)
}

// TestPairGroupingEquivalence is the same property one level down: a Pair
// grouping a mixed burst by record kind against the two pools fed their
// per-kind split directly.
func TestPairGroupingEquivalence(t *testing.T) {
	groupingEquivalence(t, func() (Arena, []*Pool[recA], []*Pool[recA]) {
		pair, p0, p1 := NewPair[recA, recA](Config{MaxThreads: 1})
		refs := []*Pool[recA]{NewPool[recA](Config{MaxThreads: 1}), NewPool[recA](Config{MaxThreads: 1, kind: 1})}
		return pair, []*Pool[recA]{p0, p1}, refs
	}, Ptr.Kind)
}

// groupingEquivalence runs every pattern × burst size through a fresh build:
// front stands in front of pools, owner(p) names p's pool by index, and refs
// are standalone pools of the same owners that the caller splits each burst
// for itself.
func groupingEquivalence(t *testing.T, build func() (front Arena, pools, refs []*Pool[recA]), owner func(Ptr) int) {
	const (
		records = 240
		burst   = 16 // declared reclamation burst
	)
	for _, pat := range groupingPatterns {
		for _, batch := range []int{1, 3, 7, burst, 5 * burst} {
			front, pools, refs := build()
			k := len(pools)
			front.SizeCache(0, burst)
			for _, p := range refs {
				p.SizeCache(0, burst)
			}

			// Identical allocation order per owner on both sides.
			frontPtrs := make([]Ptr, 0, records)
			refPtrs := make([]Ptr, 0, records)
			for i := 0; i < records; i++ {
				o := pat.owner(i, k)
				fp, _ := pools[o].Alloc(0)
				rp, _ := refs[o].Alloc(0)
				frontPtrs = append(frontPtrs, fp)
				refPtrs = append(refPtrs, rp)
			}

			// Free in bursts of `batch`: the front takes the mixed burst
			// whole; the reference splits it per owner in the caller's
			// order, which is the semantics grouping must preserve.
			for lo := 0; lo < records; lo += batch {
				hi := min(lo+batch, records)
				front.FreeBatch(0, frontPtrs[lo:hi])
				split := make([][]Ptr, k)
				for _, p := range refPtrs[lo:hi] {
					split[owner(p)] = append(split[owner(p)], p)
				}
				for o, ps := range split {
					refs[o].FreeBatch(0, ps)
				}
			}
			front.DrainCache(0)
			for _, p := range refs {
				p.DrainCache(0)
			}

			for o := 0; o < k; o++ {
				fs, rs := pools[o].Stats(), refs[o].Stats()
				if fs.Allocs != rs.Allocs || fs.Frees != rs.Frees || fs.Live != rs.Live || fs.SlabBytes != rs.SlabBytes {
					t.Fatalf("%s/batch=%d owner %d: grouped %+v != direct %+v", pat.name, batch, o, fs, rs)
				}
				if fs.Live != 0 {
					t.Fatalf("%s/batch=%d owner %d: %d live records after full free", pat.name, batch, o, fs.Live)
				}
			}
			for i := range frontPtrs {
				if front.Valid(frontPtrs[i]) {
					t.Fatalf("%s/batch=%d: grouped handle %v valid after drain", pat.name, batch, frontPtrs[i])
				}
				if refs[owner(refPtrs[i])].Valid(refPtrs[i]) {
					t.Fatalf("%s/batch=%d: reference handle %v valid after drain", pat.name, batch, refPtrs[i])
				}
			}
		}
	}
}

// TestHubGroupingConcurrent exercises the free seam under -race: several
// owners free mixed bursts into the same pools concurrently, a pool
// attaches mid-run (its SizeCache replay racing the owners' traffic), and
// the books must balance exactly after every owner drains.
func TestHubGroupingConcurrent(t *testing.T) {
	const (
		tids   = 4
		rounds = 50
		burst  = 32
	)
	h := NewHub(tids)
	pa := NewPool[recA](Config{MaxThreads: tids, Tag: h.NextTag()})
	h.Attach(0, pa)
	pb := NewPool[recB](Config{MaxThreads: tids, Tag: h.NextTag()})
	h.Attach(1, pb)
	for tid := 0; tid < tids; tid++ {
		h.SizeCache(tid, burst)
	}

	var late *Pool[recA]
	var attach sync.Once
	var wg sync.WaitGroup
	for tid := 0; tid < tids; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if tid == 0 && r == rounds/2 {
					// A structure attaches while every owner is mid-burst:
					// the replayed SizeCache races their Alloc/Free traffic.
					attach.Do(func() {
						late = NewPool[recA](Config{MaxThreads: tids, Tag: h.NextTag()})
						h.Attach(2, late)
					})
				}
				var ps []Ptr
				for i := 0; i < burst/2; i++ {
					a, _ := pa.Alloc(tid)
					b, _ := pb.Alloc(tid)
					ps = append(ps, a, b)
					if tid == 0 && late != nil {
						c, _ := late.Alloc(tid)
						ps = append(ps, c)
					}
				}
				h.FreeBatch(tid, ps)
			}
			h.DrainCache(tid)
		}(tid)
	}
	wg.Wait()

	if h.Staged() != 0 {
		t.Fatalf("Staged() = %d after all owners drained, want the constant 0", h.Staged())
	}
	for _, st := range []Stats{pa.Stats(), pb.Stats()} {
		if st.Allocs != st.Frees || st.Live != 0 {
			t.Fatalf("books unbalanced: %+v", st)
		}
	}
	if late == nil {
		t.Fatal("late pool never attached")
	}
	if st := late.Stats(); st.Allocs != st.Frees || st.Live != 0 {
		t.Fatalf("late pool unbalanced: %+v", st)
	}
}
