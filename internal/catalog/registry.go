package catalog

import (
	"fmt"

	"nbr/internal/ds"
	"nbr/internal/ds/abtree"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/ds/harrislist"
	"nbr/internal/ds/hashmap"
	"nbr/internal/ds/hmlist"
	"nbr/internal/ds/lazylist"
	"nbr/internal/mem"
)

// pooled is what every structure constructor returns: the set plus the
// allocator hooks of the pool it was built over.
type pooled interface {
	ds.Set
	Arena() mem.Arena
	MemStats() mem.Stats
}

// structure is one catalog row — everything the module knows about a
// structure kind by name: its constructor and source directory, and its row
// of the paper's Table 1 (the announcement widths it declares are its
// instance's Requirements(), carried in Instance.Req). The EBR column is
// "yes" for every structure, so a row carries only the two columns that vary;
// hpBench marks the rows Table 1 rejects for the HP family but the paper's
// own benchmark runs anyway (link re-read validation, at the documented cost
// of the structure's progress guarantee).
type structure struct {
	name    string
	dir     string
	build   func(mem.Config) pooled
	nbr, hp Verdict
	hpBench bool
}

var structures = []structure{{
	name:    "lazylist",
	dir:     "internal/ds/lazylist",
	build:   func(c mem.Config) pooled { return lazylist.NewWith(c) },
	nbr:     Verdict{true, "single Φread then Φwrite; reserve pred and curr (2 reservations)"},
	hp:      Verdict{false, "repeated protect failures on marked-but-linked nodes break wait-free searches (run in benchmark mode anyway, as the paper's E1 does)"},
	hpBench: true,
}, {
	name:  "harris",
	dir:   "internal/ds/harrislist",
	build: func(c mem.Config) pooled { return harrislist.NewWith(c) },
	nbr:   Verdict{true, "multiple read/write phases, every Φread restarts from the root (§5.2, Alg. 3); ≤3 reservations"},
	hp:    Verdict{true, "validate each record through the last unmarked node's link (HM04-style); a marked or moved link restarts"},
}, {
	name:  "hashmap",
	dir:   "internal/ds/hashmap",
	build: func(c mem.Config) pooled { return hashmap.NewWith(c) },
	nbr:   Verdict{true, "split-ordered list; every Φread restarts from the root (table pointer and dummies are roots); ≤3 reservations, one of them the cell array's segment handle"},
	hp:    Verdict{true, "validate via table re-read + link re-read (HM04-style); cells pinned through the array's segment handle"},
}, {
	name:  "hmlist",
	dir:   "internal/ds/hmlist",
	build: func(c mem.Config) pooled { return hmlist.NewWith(c, hmlist.Restart) },
	nbr:   Verdict{true, "E4 modification: every Φread restarts from the root"},
	hp:    Verdict{true, ""},
}, {
	name:  "hmlist-norestart",
	dir:   "internal/ds/hmlist",
	build: func(c mem.Config) pooled { return hmlist.NewWith(c, hmlist.NoRestart) },
	nbr:   Verdict{false, "Φread after an auxiliary Φwrite resumes from pred, violating Requirement 12"},
	hp:    Verdict{true, ""},
}, {
	name:    "dgt",
	dir:     "internal/ds/dgtbst",
	build:   func(c mem.Config) pooled { return dgtbst.NewWith(c) },
	nbr:     Verdict{true, "sync-free search then ticket-locked update; ≤3 reservations"},
	hp:      Verdict{false, "no marks, so reachability of a protected node cannot be validated (run in benchmark mode anyway, as the paper's E1 does)"},
	hpBench: true,
}, {
	name:  "abtree",
	dir:   "internal/ds/abtree",
	build: func(c mem.Config) pooled { return abtree.NewWith(c) },
	nbr:   Verdict{true, "auxiliary rebalancing steps restart from the root; ≤3 reservations"},
	hp:    Verdict{false, "searches traverse nodes whose reachability cannot be validated without version support"},
}}

// DSNames lists the data structures in the catalog, in table order.
var DSNames = func() []string {
	names := make([]string, len(structures))
	for i := range structures {
		names[i] = structures[i].name
	}
	return names
}()

// lookup finds a structure's row; an unknown name is its own error, distinct
// from a Table-1 rejection (Check).
func lookup(name string) (*structure, error) {
	for i := range structures {
		if structures[i].name == name {
			return &structures[i], nil
		}
	}
	return nil, fmt.Errorf("unknown data structure %q (have %v)", name, DSNames)
}

// Instance is one constructed data structure plus its allocator hooks and
// the announcement widths it declares (consumed at scheme construction).
type Instance struct {
	Set      ds.Set
	Arena    mem.Arena
	MemStats func() mem.Stats
	Req      ds.Requirements
}

// NewDS constructs the named data structure sized for `threads`.
func NewDS(name string, threads int) (Instance, error) {
	return NewDSArena(name, mem.Config{MaxThreads: threads})
}

// NewDSArena constructs the named data structure over a pool built from
// cfg. A shared-arena runtime passes its assigned arena tag in cfg.Tag so
// the structure's handles route through a mem.Hub; NewDS is the untagged
// standalone form.
func NewDSArena(name string, cfg mem.Config) (Instance, error) {
	s, err := lookup(name)
	if err != nil {
		return Instance{}, err
	}
	set := s.build(cfg)
	return Instance{Set: set, Arena: set.Arena(), MemStats: set.MemStats, Req: set.Requirements()}, nil
}

// DSDir returns the directory (module-relative) holding the named structure
// kind's source; two kinds that are variants of one implementation share it.
func DSDir(name string) (string, error) {
	s, err := lookup(name)
	if err != nil {
		return "", err
	}
	return s.dir, nil
}
