// Package hmlist implements the Harris-Michael lock-free list (HM04) in two
// variants for the paper's E4 experiment:
//
//   - the original (NoRestart): after snipping a marked node during a
//     traversal, the search resumes from the predecessor. This violates
//     NBR's Requirement 12 (each Φread must restart from the root), so the
//     applicability matrix rejects it for NBR — it runs under the epoch and
//     pointer-based schemes only (Table 1's HM04 row);
//   - the E4 modification (Restart): every successful snip returns to the
//     head before searching again, which makes the list NBR-compatible and,
//     as E4 observes, can even act as a contention-managing backoff.
//
// As in Harris's list the mark bit lives on a node's next field; unlike
// Harris, unlinking proceeds one node at a time.
package hmlist

import (
	"nbr/internal/ds"
	"nbr/internal/ds/marklist"
	"nbr/internal/mem"
	"nbr/internal/smr"
)

// Variant selects the E4 restart policy.
type Variant int

const (
	// Restart is the E4 modification: searches restart from the head after
	// every auxiliary unlink (NBR-compatible).
	Restart Variant = iota
	// NoRestart is Michael's original: searches continue from the
	// predecessor after a snip (NBR-incompatible).
	NoRestart
)

// List is a Harris-Michael list set: the shared marked-link list (marklist:
// record, write steps, Len and Validate) under Michael's find.
type List struct {
	marklist.List
	variant Variant
}

// New creates a list with the given restart policy, sized for `threads`.
func New(threads int, v Variant) *List {
	return NewWith(mem.Config{MaxThreads: threads}, v)
}

// NewWith creates a list over a pool built from cfg — the constructor a
// shared-arena runtime uses, stamping its assigned arena tag (cfg.Tag) into
// every node handle so a mem.Hub can route frees back here.
func NewWith(cfg mem.Config, v Variant) *List {
	return &List{List: marklist.New(cfg), variant: v}
}

// Req is the width the list declares: find alternates two Protect slots
// (prev/curr) and reserves the same pair. The retire threshold is declared
// explicitly so the narrow slot width does not raise the hp/he scan
// frequency.
var Req = ds.Requirements{Slots: 2, Reservations: 2, Threshold: ds.DefaultThreshold}

// Requirements implements the per-DS width hook.
func (l *List) Requirements() ds.Requirements { return Req }

// find locates the unmarked (prev, curr) pair bracketing key, snipping
// marked nodes it encounters, and returns it with whether curr holds key. On
// return the read phase is closed with prev and curr reserved. curr may be
// the tail sentinel.
func (l *List) find(g smr.Guard, b *smr.Barrier, key uint64) (mem.Ptr, mem.Ptr, bool) {
tryAgain:
	for {
		g.BeginRead()
		prev := l.Head
		prevV, _ := l.Read(b, 0, prev) // head sentinel, never freed
		curr := prevV.Next.Unmarked()
		prevSlot, currSlot := 0, 1
		for {
			if curr == l.Tail {
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				return prev, curr, false
			}
			currV, ok := l.Read(b, currSlot, curr)
			if !ok {
				continue tryAgain
			}
			// Michael's validation: prev must still point at curr,
			// unmarked. Doubles as the HP/IBR reachability check, and is
			// needed by all schemes for correctness of the snip CAS.
			if l.Link(g, prev) != curr {
				continue tryAgain
			}
			if currV.Next.Marked() {
				// curr is logically deleted: snip it (auxiliary Φwrite).
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				if !l.CasLink(prev, curr, currV.Next.Unmarked()) {
					continue tryAgain
				}
				g.Retire(curr)
				if l.variant == Restart {
					continue tryAgain // E4: back to the head (new Φread)
				}
				// Original HM04: resume from prev. Only reachable under
				// schemes without read phases (the matrix rejects NBR).
				g.BeginRead()
				b.Protect(prevSlot, prev)
				curr = l.Link(g, prev).Unmarked()
				continue
			}
			if currV.Key >= key {
				g.Reserve(0, prev)
				g.Reserve(1, curr)
				g.EndRead()
				return prev, curr, currV.Key == key
			}
			prev = curr
			prevSlot, currSlot = currSlot, prevSlot
			curr = currV.Next.Unmarked()
		}
	}
}

// Contains implements ds.Set.
func (l *List) Contains(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		_, _, found := l.find(g, &b, key)
		return found
	})
}

// Insert implements ds.Set; a lost link CAS finds again.
func (l *List) Insert(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			prev, curr, found := l.find(g, &b, key)
			if found {
				return false
			}
			if l.List.Insert(g, prev, curr, key, 0) != mem.Null {
				return true
			}
		}
	})
}

// Delete implements ds.Set: mark curr (linearization), then try one snip; a
// later find retires otherwise. A raced deleter or inserter finds again.
func (l *List) Delete(g smr.Guard, key uint64) bool {
	b := smr.BarrierOf(g)
	return smr.Execute(g, func() bool {
		for {
			prev, curr, found := l.find(g, &b, key)
			if !found {
				return false
			}
			if l.List.Delete(g, prev, curr) {
				return true
			}
		}
	})
}
