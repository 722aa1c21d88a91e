// Package mem is the manual-memory substrate for the NBR reproduction.
//
// The paper's SMR algorithms assume records are malloc'd and free'd; Go's
// garbage collector offers neither. This package restores explicit
// allocate/free semantics with a slab pool: records live in slabs committed
// in one address-space reservation per pool, outside the Go heap, are
// addressed by generation-tagged 64-bit handles (Ptr), and are recycled
// through per-thread caches backed by a shared free list. Freeing a record
// bumps its slot generation, so any later dereference through a stale handle
// is detected deterministically — the reproduction's equivalent of a
// use-after-free crash under an address sanitizer.
package mem

import "fmt"

// Ptr is a generation-tagged handle to a pool slot. The zero value is the
// nil handle. Layout (most significant bit first):
//
//	bit  63     user mark bit (Harris-style marked pointers)
//	bits 62..32 slot generation (odd = live)
//	bits 31..28 arena tag (which structure behind a Hub owns the slot)
//	bit  27     record kind (which of its structure's pools owns the slot)
//	bits 26..0  slot index
//
// The mark bit belongs to the data structure, not the allocator: two handles
// that differ only in the mark bit address the same record. All Pool methods
// ignore the mark bit, so callers may pass marked handles directly.
//
// The arena tag is what lets several typed pools stand behind one shared
// mem.Arena (a Hub): a pool constructed with Config.Tag k stamps k into
// every handle it returns, so a reclamation scheme holding a mixed bag of
// retired records from many structures can route each free back to the pool
// that owns it without per-record bookkeeping. The record kind does the same
// one level down, inside one structure: a structure with records of two
// sizes keeps them in two pools, kinds 0 and 1 under one tag, and presents
// them as one Arena (a Pair), so a reader tells a child's kind from the link
// alone. maxSlots is 2^27, so both fields are free; a pool with Tag 0 (the
// default) outside a Pair produces plain handles.
type Ptr uint64

// Null is the nil handle. Slot 0 is never allocated, so no live handle
// compares equal to Null even with its mark bit cleared.
const Null Ptr = 0

// MaxTags is the number of distinct arena tags a Ptr can carry — the most
// pools one Hub can stand in front of.
const MaxTags = 1 << tagBits

const (
	markBit = Ptr(1) << 63
	genMask = (uint64(1) << 31) - 1

	tagBits     = 4
	tagShift    = 32 - tagBits
	kindShift   = tagShift - 1
	slotIdxMask = uint32(1)<<kindShift - 1

	// tagField and kindField are the two routing fields, as the masks a
	// burst is grouped on (group).
	tagField  = Ptr(MaxTags-1) << tagShift
	kindField = Ptr(1) << kindShift
)

// pack builds a handle from a slot index, generation, arena tag and record
// kind.
func pack(idx uint32, gen uint32, tag, kind int) Ptr {
	return Ptr(uint64(idx) | uint64(tag)<<tagShift | uint64(kind)<<kindShift | (uint64(gen)&genMask)<<32)
}

// Idx returns the slot index of p within its owning pool (tag and kind
// stripped).
func (p Ptr) Idx() uint32 { return uint32(p) & slotIdxMask }

// ArenaTag returns which pool behind a Hub owns p's slot (0 for a pool
// constructed without a tag).
func (p Ptr) ArenaTag() int { return int(uint32(p) >> tagShift) }

// Kind returns the record kind of p's slot: 0, or 1 for a record of the
// second pool of a Pair (NewPair).
func (p Ptr) Kind() int { return int(uint32(p) >> kindShift & 1) }

// Gen returns the slot generation p was created with.
func (p Ptr) Gen() uint32 { return uint32((uint64(p) >> 32) & genMask) }

// IsNull reports whether p is the nil handle (ignoring the mark bit).
func (p Ptr) IsNull() bool { return p&^markBit == Null }

// Marked reports whether the user mark bit is set.
func (p Ptr) Marked() bool { return p&markBit != 0 }

// WithMark returns p with the user mark bit set.
func (p Ptr) WithMark() Ptr { return p | markBit }

// Unmarked returns p with the user mark bit cleared.
func (p Ptr) Unmarked() Ptr { return p &^ markBit }

// String formats p for diagnostics.
func (p Ptr) String() string {
	if p.IsNull() {
		return "mem.Null"
	}
	s := "mem.Ptr{"
	if t := p.ArenaTag(); t != 0 {
		s += fmt.Sprintf("arena:%d ", t)
	}
	if k := p.Kind(); k != 0 {
		s += fmt.Sprintf("kind:%d ", k)
	}
	s += fmt.Sprintf("idx:%d gen:%d", p.Idx(), p.Gen())
	if p.Marked() {
		s += "*"
	}
	return s + "}"
}
