// Package harrislist implements Harris's lock-free linked list (HL01), the
// paper's example of a data structure with multiple read/write phases
// (§5.2, Algorithm 3): the search may unlink a chain of marked nodes (an
// auxiliary write phase) and then restarts from the root, beginning a fresh
// read phase — exactly the pattern NBR requires (Requirement 12), with left
// and right reserved before each unlink CAS (Requirement 13).
//
// A node is logically deleted when the mark bit of its *next pointer* is
// set. Unlinking splices a whole marked chain with one CAS on an unmarked
// predecessor; the splicing thread retires the chain (collected during the
// read phase into a per-thread scratch buffer that neutralization simply
// discards).
package harrislist

import (
	"nbr/internal/ds"
	"nbr/internal/ds/marklist"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// List is a Harris lock-free list set: the shared marked-link list
// (marklist: record, traversal, splice, write steps, Len and Validate) under
// this package's read-phase brackets.
type List struct{ marklist.List }

// New creates a list sized for the given number of threads.
func New(threads int) *List {
	return NewWith(mem.Config{MaxThreads: threads})
}

// NewWith creates a list over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config) *List {
	return &List{marklist.New(cfg)}
}

// Req is the width the list declares: left holds slot 0 while the cursor
// alternates slots 1 and 2; only left and right are reserved (Algorithm 3
// line 31). The retire threshold is declared explicitly so the narrow slot
// width does not raise the hp/he scan frequency.
var Req = ds.Requirements{Slots: 3, Reservations: 2, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (l *List) Requirements() ds.Requirements { return Req }

// search implements Algorithm 3's search: find the unmarked node pair
// (left, right) bracketing key, splicing out any marked chain in between,
// and return it with whether right holds key. Each iteration is one read
// phase from the root followed by the auxiliary write phase; on return the
// phase is closed with left and right reserved.
func (l *List) search(g smr.Guard, b *smr.Barrier, key uint64) (mem.Ptr, mem.Ptr, bool) {
	for {
		g.BeginRead()
		left, leftNext, right, found, ok := l.Traverse(g, b, l.Head, key, 0)
		if !ok {
			continue
		}
		// endΦread(left, right) — Algorithm 3 line 31.
		g.Reserve(0, left)
		g.Reserve(1, right)
		g.EndRead()
		if l.Splice(g, left, leftNext, right) {
			return left, right, found
		}
	}
}

// Contains implements ds.Set via a full search (which may help unlink).
func (l *List) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, found := l.search(g, &b, key)
		return found
	})
}

// Insert implements ds.Set (Algorithm 3's insert); a lost link CAS starts a
// fresh read phase.
func (l *List) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			left, right, found := l.search(g, &b, key)
			if found {
				return false
			}
			if l.List.Insert(g, left, right, key, 0) != mem.Null {
				return true
			}
		}
	})
}

// Delete implements ds.Set: logical mark CAS, then attempt the physical
// unlink; on failure the next search performs the unlink and retires.
func (l *List) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			left, right, found := l.search(g, &b, key)
			if !found {
				return false
			}
			if l.List.Delete(g, left, right) {
				return true
			}
		}
	})
}

// BuildMarkedChain deterministically prepares an oversized-splice input for
// the garbage-bound suites (quiescent; single-threaded): it inserts keys
// 1..n through the normal write path, then sets the mark bit on each node's
// next pointer *without* performing the physical unlink — exactly the state
// n logically deleted nodes are in before any search helps. The next search
// that traverses past the chain splices all n nodes with one CAS and hands
// them to the scheme in a single RetireBatch, so the batch-split watermark
// logic is exercised with a chain of chosen length on every run instead of
// relying on churn to produce one. Returns the number of nodes marked.
func (l *List) BuildMarkedChain(g smr.Guard, n int) int {
	for k := 1; k <= n; k++ {
		l.Insert(g, uint64(k))
	}
	return l.MarkWhere(func(k uint64, _ uint32) bool { return k >= 1 && k <= uint64(n) })
}
