package smr

import (
	"sync/atomic"

	"nbr/internal/mem"
)

// This file is the read barrier a traversal pays per visited record. The
// paper's NBR costs nothing there — signals arrive asynchronously — and the
// stand-in for that is sigsim's poll: one load of the thread's state word and
// one compare. Reaching it through Guard.Protect costs two interface
// dispatches per record, which is more than the poll itself; a Barrier
// resolves the guard's poll words once per operation so the per-record price
// is the load and the compare, inlined into the structure's barriered copy.

// FastProtect is the optional interface of a guard whose Protect does
// nothing while a word it can name stays at or below a ceiling only its own
// thread moves: the NBR family, whose Protect is sigsim's Poll
// (sigsim.Group.PollWords), and the guards that keep Limbo's empty Protect
// (NoProtect). Guards that announce in Protect (hp, he, ibr) must not
// implement it, and a wrapper that wants to see every Protect simply does not
// forward it: discovery is a type assertion on the guard a structure was
// handed, so an unaware wrapper always gets the full barrier.
type FastProtect interface {
	// ProtectWords returns the pair for the guard's thread: Protect may be
	// skipped while word.Load() <= *quiet.
	ProtectWords() (word *atomic.Uint64, quiet *uint64)
}

// The constant pairs: a word that never rises above the zero ceiling, for
// guards with nothing to poll, and one that always is, for guards without a
// fast path. None of the three is ever written.
var (
	zeroQuiet uint64
	restWord  atomic.Uint64
	busyWord  = func() *atomic.Uint64 {
		w := new(atomic.Uint64)
		w.Store(1)
		return w
	}()
)

// NoProtect is embedded by guards that keep Limbo's empty Protect (the
// epoch schemes and the leaky baseline): it offers the fast path with a pair
// on which nothing is ever pending.
type NoProtect struct{}

// ProtectWords implements FastProtect.
func (NoProtect) ProtectWords() (*atomic.Uint64, *uint64) { return &restWord, &zeroQuiet }

// Barrier is a guard's read barrier resolved for one operation: the pair
// behind FastProtect (the always-pending one when the guard does not offer
// it) and the guard's NeedsValidation answer, both read once by BarrierOf.
// It is a shortcut to Guard.Protect, not a second barrier: whenever the word
// is above its ceiling the call goes to the guard, which alone delivers.
type Barrier struct {
	g        Guard
	word     *atomic.Uint64
	quiet    *uint64
	validate bool
}

// BarrierOf resolves g's read barrier. Call it once per operation, outside
// the read phase, and hand the result to the traversal.
func BarrierOf(g Guard) Barrier {
	b := Barrier{g: g, word: busyWord, quiet: &zeroQuiet, validate: g.NeedsValidation()}
	if f, ok := g.(FastProtect); ok {
		b.word, b.quiet = f.ProtectWords()
	}
	return b
}

// Protect is Guard.Protect: skipped while the guard's word is at or below
// its ceiling, forwarded otherwise — always, for a guard without the pair.
// The body is kept to one load, one compare and the call so that it inlines
// into every barriered copy (TestReadPathInlines pins that).
func (b *Barrier) Protect(slot int, p mem.Ptr) {
	if b.word.Load() > *b.quiet {
		b.g.Protect(slot, p)
	}
}

// NeedsValidation is Guard.NeedsValidation, as read by BarrierOf.
func (b *Barrier) NeedsValidation() bool { return b.validate }

// Stale is the tail of every copy-then-validate read whose generation check
// failed. Under a validating scheme (hp, he, ibr) that is the benign
// freed-before-announce window link re-validation exists to catch: Stale
// returns false and the caller restarts its traversal. Under every other
// scheme the record was promised live, and the failure goes to
// Guard.OnStale, which neutralizes (NBR) or panics and does not return.
func (b *Barrier) Stale(p mem.Ptr) bool {
	if !b.validate {
		b.g.OnStale(p)
	}
	return false
}
