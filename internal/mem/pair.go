package mem

// Pair is one Arena in front of the two pools of a structure whose records
// come in two sizes — the DGT tree's 32-byte routers and 16-byte leaves — so
// neither kind pays for the other's fields. Each pool stamps its record kind
// into its handles and the Pair routes every Arena call on Ptr.Kind; the two
// pools share one arena tag, so a Hub attaches the Pair as it would a single
// pool and a scheme sees one Arena either way (see DESIGN.md §4 "Record
// kinds").
//
// Like the Hub, the Pair keeps no state of its own: FreeBatch groups a burst
// by kind in place and frees each group in one pool FreeBatch before it
// returns.
type Pair struct {
	pools [2]kindPool
}

// kindPool is what a Pair needs of each of its pools.
type kindPool interface {
	Arena
	Stats() Stats
}

// NewPair builds the two pools of a structure with two record kinds, both
// from cfg and so under its one tag — records of type A are kind 0, of type B
// kind 1 — and the Pair that presents them as one Arena.
func NewPair[A, B any](cfg Config) (*Pair, *Pool[A], *Pool[B]) {
	kind0 := NewPool[A](cfg)
	cfg.kind = 1
	kind1 := NewPool[B](cfg)
	return &Pair{pools: [2]kindPool{kind0, kind1}}, kind0, kind1
}

// Stats returns the statistics of the pool holding records of the given
// kind.
func (a *Pair) Stats(kind int) Stats { return a.pools[kind].Stats() }

// Free implements Arena by routing to the pool of p's kind.
func (a *Pair) Free(tid int, p Ptr) { a.pools[p.Kind()].Free(tid, p) }

// FreeBatch implements Arena: one pass groups ps by kind in place (group), so
// a burst of one kind is one pool FreeBatch and a mixed burst two, and every
// record is freed before it returns. ps is reordered, not retained.
func (a *Pair) FreeBatch(tid int, ps []Ptr) {
	for len(ps) > 0 {
		n := group(ps, kindField)
		a.pools[ps[0].Kind()].FreeBatch(tid, ps[:n])
		ps = ps[n:]
	}
}

// Hdr implements Arena by routing to the pool of p's kind.
func (a *Pair) Hdr(p Ptr) *Hdr { return a.pools[p.Kind()].Hdr(p) }

// Valid implements Arena by routing to the pool of p's kind.
func (a *Pair) Valid(p Ptr) bool { return a.pools[p.Kind()].Valid(p) }

// SizeCache implements Arena by fanning out to both pools: a reclamation
// burst can be wholly of either kind.
func (a *Pair) SizeCache(tid, burst int) {
	for _, p := range a.pools {
		p.SizeCache(tid, burst)
	}
}

// DrainCache implements Arena by fanning out to both pools.
func (a *Pair) DrainCache(tid int) {
	for _, p := range a.pools {
		p.DrainCache(tid)
	}
}
