package ds_test

import (
	"math/rand"
	"slices"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/ds/harrislist"
	"nbr/internal/ds/lazylist"
	"nbr/internal/ds/marklist"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// tracingGuard is a wrapper in the shape of the benchmark's traced twin: it
// embeds the interface, so it forwards every Guard method and nothing else —
// not FastProtect, so the barrier hands it every Protect. It records each
// Protect's slot and handle and counts read phases; onProtect, when set, runs
// before a Protect is forwarded.
type tracingGuard struct {
	smr.Guard
	slots     []int
	handles   []mem.Ptr
	reads     int
	onProtect func(p mem.Ptr)
}

func (w *tracingGuard) Protect(slot int, p mem.Ptr) {
	w.slots = append(w.slots, slot)
	w.handles = append(w.handles, p)
	if w.onProtect != nil {
		w.onProtect(p)
	}
	w.Guard.Protect(slot, p)
}

func (w *tracingGuard) BeginRead() {
	w.reads++
	w.Guard.BeginRead()
}

func (w *tracingGuard) reset() {
	w.slots, w.handles, w.reads = w.slots[:0], w.handles[:0], 0
}

// searchCase is one structure under test: a constructor over the keys it
// holds, and the Protect slot width its search rotates through.
type searchCase struct {
	name  string
	width int
	build func(threads int) (ds.Set, mem.Arena)
}

var searchCases = []searchCase{
	{"lazylist", 2, func(threads int) (ds.Set, mem.Arena) {
		l := lazylist.New(threads)
		return l, l.Arena()
	}},
	{"dgt", 3, func(threads int) (ds.Set, mem.Arena) {
		t := dgtbst.New(threads)
		return t, t.Arena()
	}},
}

func newSchemeFor(tb testing.TB, scheme string, set ds.Set, arena mem.Arena, threads int) smr.Scheme {
	tb.Helper()
	sch, err := catalog.NewSchemeFor(scheme, arena, threads, catalog.DefaultSchemeConfig(), set.Requirements())
	if err != nil {
		tb.Fatal(err)
	}
	return sch
}

// shuffled returns the keys 1…n in a fixed pseudo-random order.
func shuffled(n int) []uint64 {
	keys := make([]uint64, n)
	for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
		keys[i] = uint64(j + 1)
	}
	return keys
}

// modelNode is a node of dgtDepths' model tree.
type modelNode struct {
	key         uint64
	left, right *modelNode
}

// dgtDepths replays DGT's insert rule — a leaf is replaced by a router over
// {leaf, new leaf} keyed by the larger key — on a plain tree, and returns
// each inserted key's leaf depth, the root router at depth 0.
func dgtDepths(keys []uint64) map[uint64]int {
	root := &modelNode{key: ds.MaxKey - 1,
		left: &modelNode{key: ds.MaxKey - 1}, right: &modelNode{key: ds.MaxKey}}
	descend := func(key uint64) (link **modelNode, depth int) {
		link = &root
		for (*link).left != nil {
			if key < (*link).key {
				link = &(*link).left
			} else {
				link = &(*link).right
			}
			depth++
		}
		return link, depth
	}
	for _, k := range keys {
		link, _ := descend(k)
		leaf, fresh := *link, &modelNode{key: k}
		if k < leaf.key {
			*link = &modelNode{key: leaf.key, left: fresh, right: leaf}
		} else {
			*link = &modelNode{key: k, left: leaf, right: fresh}
		}
	}
	depths := make(map[uint64]int, len(keys))
	for _, k := range keys {
		_, depths[k] = descend(k)
	}
	return depths
}

// TestSearchProtectSequence pins one Protect per visited record: a lazy-list
// search for the k-th key protects the head and k nodes, slots alternating
// 0, 1, …, and a DGT descent to depth d protects d+1 records, slots rotating
// 0, 1, 2, 0, …, the last of them a leaf. This is what keeps the traced
// twin's ds.protects_per_op equal to the records a search visits now that
// the copy is written inside the search loop.
func TestSearchProtectSequence(t *testing.T) {
	const n = 64
	for _, c := range searchCases {
		t.Run(c.name, func(t *testing.T) {
			set, arena := c.build(1)
			g := newSchemeFor(t, "hp", set, arena, 1).Guard(0)
			keys := shuffled(n)
			for _, k := range keys {
				set.Insert(g, k)
			}
			// records is how many records a search for k visits.
			records := func(k uint64) int { return int(k) + 1 }
			if c.name == "dgt" {
				depths := dgtDepths(keys)
				records = func(k uint64) int { return depths[k] + 1 }
			}
			w := &tracingGuard{Guard: g}
			for k := uint64(1); k <= n; k++ {
				w.reset()
				if !set.Contains(w, k) {
					t.Fatalf("key %d missing", k)
				}
				if w.reads != 1 {
					t.Fatalf("Contains(%d) opened %d read phases, want 1", k, w.reads)
				}
				if len(w.slots) != records(k) {
					t.Fatalf("Contains(%d) made %d Protect calls, want %d", k, len(w.slots), records(k))
				}
				for i, s := range w.slots {
					if s != i%c.width {
						t.Fatalf("Contains(%d): Protect #%d used slot %d, want %d (slots %v)", k, i, s, i%c.width, w.slots)
					}
				}
				if c.name == "dgt" {
					for i, p := range w.handles {
						if leaf := i == len(w.handles)-1; (p.Kind() == 1) != leaf {
							t.Fatalf("Contains(%d): Protect #%d of %d names a record of kind %d", k, i, len(w.handles), p.Kind())
						}
					}
				}
			}
		})
	}
}

// TestSearchRestartsOnStale frees the record a search is about to protect:
// on the reader's Protect of the record holding a target key, the wrapper
// deletes that key through a second guard and drains it before the call is
// forwarded. Under hp the hazard comes too late, Gen.Is fails, Stale returns
// false and the search restarts its read phase; under nbr+ the drain's
// signal neutralizes the reader at that very barrier and Execute runs the
// operation again. Either way the search restarts exactly once and every
// answer matches a map oracle.
func TestSearchRestartsOnStale(t *testing.T) {
	const n = 32
	for _, c := range searchCases {
		for _, scheme := range []string{"hp", "nbr+"} {
			t.Run(c.name+"/"+scheme, func(t *testing.T) {
				set, arena := c.build(2)
				sch := newSchemeFor(t, scheme, set, arena, 2)
				reader, writer := sch.Guard(0), sch.Guard(1)
				oracle := map[uint64]bool{}
				for _, k := range shuffled(n) {
					set.Insert(writer, k)
					oracle[k] = true
				}
				w := &tracingGuard{Guard: reader}
				for _, target := range []uint64{1, n / 2, n} {
					// The record holding target is the last one its search protects.
					w.reset()
					set.Contains(w, target)
					p := w.handles[len(w.handles)-1]

					fired := false
					w.onProtect = func(q mem.Ptr) {
						if q != p || fired {
							return
						}
						fired = true
						if !set.Delete(writer, target) {
							t.Fatalf("Delete(%d) through the second guard failed", target)
						}
						delete(oracle, target)
						sch.Quiesce(1)
						if arena.Valid(p) {
							t.Fatalf("the drain left %v allocated", p)
						}
					}
					w.reset()
					before := sch.Stats().Neutralized
					got := set.Contains(w, target)
					neutralized := sch.Stats().Neutralized - before
					w.onProtect = nil
					if !fired {
						t.Fatalf("Contains(%d) never protected %v", target, p)
					}
					if got != oracle[target] {
						t.Fatalf("Contains(%d) = %v after its record was freed, oracle says %v", target, got, oracle[target])
					}
					if restarts := w.reads - 1; restarts != 1 {
						t.Fatalf("Contains(%d) restarted %d times, want 1", target, restarts)
					}
					if want := map[string]uint64{"hp": 0, "nbr+": 1}[scheme]; neutralized != want {
						t.Fatalf("Contains(%d) was neutralized %d times, want %d", target, neutralized, want)
					}
				}
				for k := uint64(1); k <= n+1; k++ {
					if got := set.Contains(reader, k); got != oracle[k] {
						t.Fatalf("Contains(%d) = %v, oracle says %v", k, got, oracle[k])
					}
				}
				if err := set.Validate(); err != nil {
					t.Fatal(err)
				}
				if got := set.Len(); got != len(oracle) {
					t.Fatalf("Len = %d, oracle holds %d", got, len(oracle))
				}
			})
		}
	}
}

// pick is one case of TestSearchRestartsOnUnlink.
type pick struct {
	target, victim uint64  // the key searched for, the key deleted
	record         mem.Ptr // the record whose Protect triggers the delete
}

// TestSearchRestartsOnUnlink pins the reachability validation a search runs
// under hp. On the reader's Protect of a chosen record, the wrapper first
// deletes a key through a second guard, and that delete unlinks the record's
// parent while the record itself stays live and reachable: in the lazy list
// it deletes pred's key, so pred is marked and unlinked; in DGT it deletes
// the record's sibling leaf, so the parent router is flagged removed and
// spliced out, the record moving up to the grandparent. The record's own
// generation check passes, so only the validation against the parent — its
// link re-read, then its marked or removed flag — sees that the record was
// not provably reachable when protected. The search must restart exactly
// once, which shows as a second BeginRead, and still find its key. dgt/leaf
// unlinks the parent of the leaf the descent ends at, dgt/router the parent
// of a router on the way, so both of the descent's checks are pinned.
func TestSearchRestartsOnUnlink(t *testing.T) {
	const n = 32
	// path returns the handles a search for k protects, root or head first.
	path := func(set ds.Set, w *tracingGuard, k uint64) []mem.Ptr {
		w.reset()
		set.Contains(w, k)
		return slices.Clone(w.handles)
	}
	cases := []struct {
		name  string
		build func(threads int) (ds.Set, mem.Arena)
		keys  []uint64
		pick  func(set ds.Set, w *tracingGuard) (pick, bool)
	}{
		{"lazylist", searchCases[0].build, shuffled(n), func(set ds.Set, w *tracingGuard) (pick, bool) {
			// The node holding n/2; its pred holds n/2-1.
			p := path(set, w, n/2)
			return pick{n / 2, n/2 - 1, p[len(p)-1]}, true
		}},
		{"dgt/leaf", searchCases[1].build, shuffled(n), func(set ds.Set, w *tracingGuard) (pick, bool) {
			return dgtSibling(n, func(k uint64) []mem.Ptr { return path(set, w, k) }, true)
		}},
		{"dgt/router", searchCases[1].build, shuffled(n), func(set ds.Set, w *tracingGuard) (pick, bool) {
			return dgtSibling(n, func(k uint64) []mem.Ptr { return path(set, w, k) }, false)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, arena := c.build(2)
			sch := newSchemeFor(t, "hp", set, arena, 2)
			reader, writer := sch.Guard(0), sch.Guard(1)
			for _, k := range c.keys {
				set.Insert(writer, k)
			}
			w := &tracingGuard{Guard: reader}
			pk, ok := c.pick(set, w)
			if !ok {
				t.Fatalf("no record of the wanted shape among %d keys", n)
			}
			fired := false
			w.onProtect = func(q mem.Ptr) {
				if q != pk.record || fired {
					return
				}
				fired = true
				if !set.Delete(writer, pk.victim) {
					t.Fatalf("Delete(%d) through the second guard failed", pk.victim)
				}
			}
			w.reset()
			got := set.Contains(w, pk.target)
			w.onProtect = nil
			if !fired {
				t.Fatalf("Contains(%d) never protected %v", pk.target, pk.record)
			}
			if !got {
				t.Fatalf("Contains(%d) = false; only %d was deleted", pk.target, pk.victim)
			}
			if restarts := w.reads - 1; restarts != 1 {
				t.Fatalf("Contains(%d) restarted %d times after Delete(%d) unlinked the parent of %v, want 1",
					pk.target, restarts, pk.victim, pk.record)
			}
			if !arena.Valid(pk.record) {
				t.Fatalf("%v was freed; the delete should only have moved it", pk.record)
			}
			if set.Contains(reader, pk.victim) {
				t.Fatalf("Contains(%d) = true after its delete", pk.victim)
			}
			if err := set.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := set.Len(); got != n-1 {
				t.Fatalf("Len = %d, want %d", got, n-1)
			}
		})
	}
}

// dgtSibling finds, among the keys 1…n of a DGT tree whose search paths
// path returns, a victim leaf whose parent is not the root, and a target key
// whose descent passes that parent into the victim's sibling: a leaf when
// leaf is set (the target's own), a router otherwise.
func dgtSibling(n uint64, path func(k uint64) []mem.Ptr, leaf bool) (pick, bool) {
	for victim := uint64(1); victim <= n; victim++ {
		vp := path(victim)
		i := len(vp) - 2 // the parent's index on both paths
		if i < 1 {
			continue
		}
		for target := uint64(1); target <= n; target++ {
			tp := path(target)
			if target == victim || len(tp) <= i+1 || tp[i] != vp[i] || tp[i+1] == vp[i+1] {
				continue
			}
			if (i+1 == len(tp)-1) == leaf {
				return pick{target, victim, tp[i+1]}, true
			}
		}
	}
	return pick{}, false
}

// TestTraverseRestartsOnSplicedChain pins the reachability check of the
// marked-link traversal (marklist.Traverse) under the validating schemes. A
// Harris list holds 1…8 with 3 and 4 marked; a reader looks for 6. On the
// reader's Protect of 4 — reached through the marked 3, whose frozen link
// still names 4 — a second guard searches for 5, which splices the chain
// [3, 4] out and retires it. 4 is still allocated, so only the re-read of
// the last unmarked node's link (2 → 5, no longer 2 → 3) shows that 4 was
// not reachable when protected: the reader must open a second read phase
// and still find 6. A check through the marked 3 passes here, and a scan
// by the retirer would then free 4 under the reader.
func TestTraverseRestartsOnSplicedChain(t *testing.T) {
	for _, scheme := range []string{"hp", "he", "ibr"} {
		t.Run(scheme, func(t *testing.T) {
			l := harrislist.New(2)
			sch := newSchemeFor(t, scheme, l, l.Arena(), 2)
			reader, writer := sch.Guard(0), sch.Guard(1)
			for k := uint64(1); k <= 8; k++ {
				l.Insert(writer, k)
			}
			var four mem.Ptr
			l.Walk(func(p mem.Ptr, v marklist.View) {
				if v.Key == 4 {
					four = p
				}
			})
			if got := l.MarkWhere(func(k uint64, _ uint32) bool { return k == 3 || k == 4 }); got != 2 {
				t.Fatalf("MarkWhere marked %d nodes, want 2", got)
			}
			w := &tracingGuard{Guard: reader}
			fired := false
			w.onProtect = func(q mem.Ptr) {
				if q != four || fired {
					return
				}
				fired = true
				if !l.Contains(writer, 5) {
					t.Fatal("Contains(5) through the second guard = false")
				}
			}
			got := l.Contains(w, 6)
			w.onProtect = nil
			if !fired {
				t.Fatalf("Contains(6) never protected %v", four)
			}
			if !got {
				t.Fatal("Contains(6) = false; nothing deleted it")
			}
			if w.reads != 2 {
				t.Fatalf("Contains(6) opened %d read phases after its chain was spliced out, want 2", w.reads)
			}
			if err := l.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := l.Len(); got != 6 {
				t.Fatalf("Len = %d, want 6", got)
			}
		})
	}
}
