package ds_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/abtree"
	"nbr/internal/ds/dgtbst"
	"nbr/internal/ds/harrislist"
	"nbr/internal/ds/lazylist"
	"nbr/internal/mem"
)

// structures are the four packages that own a barriered copy — the read
// barrier every traversal pays per visited record — in the file named after
// the package: abtree in read and marklist in Read (which harrislist, hmlist
// and hashmap traverse through), each a method whose name begins with read;
// lazylist and dgtbst inside search's own loop, with no call per record —
// neither for the copy nor for the hazard-pointer link validation.
var structures = []string{"abtree", "dgtbst", "lazylist", "marklist"}

// fused are the structures whose search loop does its own barriered copy and
// its own link validation, against the parent slot it already holds.
var fused = map[string]bool{"dgtbst": true, "lazylist": true}

// inlined are the calls that must disappear into every barriered copy: the
// barrier's load-and-compare, the one-lookup slot accessor, and the slab
// resolution under it, each with the call whose line the compiler reports it
// at. The read path's speed is these three inlining decisions, and nothing
// else in the suite notices when one is lost.
var inlined = []struct {
	name, at string
	re       *regexp.Regexp
}{
	{"smr.(*Barrier).Protect", "Protect", regexp.MustCompile(`inlining call to smr\.\(\*Barrier\)\.Protect$`)},
	{"mem.(*Pool).Slot", "Slot", regexp.MustCompile(`inlining call to mem\.\(\*Pool\[.*\]\)\.Slot$`)},
	{"mem.(*Pool).slotAt", "Slot", regexp.MustCompile(`inlining call to mem\.\(\*Pool\[.*\]\)\.slotAt$`)},
}

// helper is one method holding a barriered copy: its name and the lines of
// its method calls, by method name — a fused DGT search has two Slot calls,
// one per record kind, and each must inline.
type helper struct {
	name  string
	calls map[string][]int
}

// copyHelpers returns the methods of the structure's file that hold a
// barriered copy: every one whose name begins with read, in either case, and
// search where the structure fuses the copy into its loop. For a fused
// structure it also fails if a loop in search still calls a read* or
// validate* method.
func copyHelpers(t *testing.T, pkg string) []helper {
	t.Helper()
	file := filepath.Join(pkg, pkg+".go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var hs []helper
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil {
			continue
		}
		isSearch := fused[pkg] && fn.Name.Name == "search"
		if isSearch {
			loopCallsRead(t, fset, fn)
		}
		if isSearch || strings.HasPrefix(strings.ToLower(fn.Name.Name), "read") {
			h := helper{fn.Name.Name, map[string][]int{}}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						h.calls[sel.Sel.Name] = append(h.calls[sel.Sel.Name], fset.Position(call.Pos()).Line)
					}
				}
				return true
			})
			hs = append(hs, h)
		}
	}
	if len(hs) == 0 {
		t.Fatalf("%s declares no barriered copy", file)
	}
	return hs
}

// loopCallsRead fails the test for every call to a read* or validate*
// method inside a loop of fn: a fused search copies each record, and
// validates the link that led to it, in the loop itself.
func loopCallsRead(t *testing.T, fset *token.FileSet, fn *ast.FuncDecl) {
	t.Helper()
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					switch name := strings.ToLower(sel.Sel.Name); {
					case strings.HasPrefix(name, "read"):
						t.Errorf("%s: the loop in %s calls %s; the barriered copy belongs inline in the loop",
							fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
					case strings.HasPrefix(name, "validate"):
						t.Errorf("%s: the loop in %s calls %s; the link validation belongs inline in the loop, against the parent slot it holds",
							fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
					}
				}
			}
			return true
		})
		return false
	})
}

// TestReadPathInlines compiles the structures with the compiler's inlining
// report on and requires each of the three calls to inline at every Protect
// and Slot call of every method holding a barriered copy.
func TestReadPathInlines(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./...: %v\n%s", err, out)
	}
	// The go command replays cached diagnostics with the paths of the build
	// that produced them, so only the <pkg>/<pkg>.go tail is matched.
	diag := regexp.MustCompile(`(\w+)/(\w+)\.go:(\d+):\d+: (.*)$`)
	type site struct {
		pkg  string
		line int
	}
	msgs := map[site][]string{}
	for _, ln := range strings.Split(string(out), "\n") {
		if m := diag.FindStringSubmatch(ln); m != nil && m[1] == m[2] {
			n, _ := strconv.Atoi(m[3])
			msgs[site{m[1], n}] = append(msgs[site{m[1], n}], m[4])
		}
	}
	for _, pkg := range structures {
		for _, h := range copyHelpers(t, pkg) {
			for _, in := range inlined {
				lines := h.calls[in.at]
				if len(lines) == 0 {
					t.Errorf("%s: %s makes no %s call", pkg, h.name, in.at)
				}
				for _, line := range lines {
					if !slices.ContainsFunc(msgs[site{pkg, line}], in.re.MatchString) {
						t.Errorf("%s: %s is not inlined into %s at line %d; see `go build -gcflags=-m=2` for the cost that went over budget",
							pkg, in.name, h.name, line)
					}
				}
			}
		}
	}
}

// BenchmarkReadBarrier measures the read path per visited record under a
// fast-path scheme with signals (nbr+), one without (debra) and an announcing
// one that always falls through (hp), wherever the catalog runs the
// structure under the scheme (abtree has no hp row). The lists — lazylist,
// whose rows carry the bare scheme name, and harris/<scheme>, which walks
// through marklist.Traverse — run a Contains over the whole 1024-key list,
// head and 1024 records. The trees — dgt/<scheme>, whose search copies each
// record in its own loop, and abtree/<scheme>, which calls read per record —
// descend to each key of a 1024-key tree built by shuffled inserts, their
// records per descent counted once through a wrapper that sees every
// Protect. ns/record is the number to watch; allocs/op must be 0.
func BenchmarkReadBarrier(b *testing.B) {
	const keys = 1024
	ascending := make([]uint64, keys)
	for i := range ascending {
		ascending[i] = uint64(i + 1)
	}
	rows := []struct {
		prefix, ds string
		build      func() (ds.Set, mem.Arena)
		tree       bool // descend to every key; a list walks to the last one
	}{
		{"", "lazylist", func() (ds.Set, mem.Arena) { l := lazylist.New(1); return l, l.Arena() }, false},
		{"dgt/", "dgt", func() (ds.Set, mem.Arena) { t := dgtbst.New(1); return t, t.Arena() }, true},
		{"harris/", "harris", func() (ds.Set, mem.Arena) { l := harrislist.New(1); return l, l.Arena() }, false},
		{"abtree/", "abtree", func() (ds.Set, mem.Arena) { t := abtree.New(1); return t, t.Arena() }, true},
	}
	for _, row := range rows {
		for _, scheme := range []string{"nbr+", "debra", "hp"} {
			if !catalog.Runnable(row.ds, scheme) {
				continue
			}
			b.Run(row.prefix+scheme, func(b *testing.B) {
				// Through the interface, as every harness calls a structure.
				set, arena := row.build()
				g := newSchemeFor(b, scheme, set, arena, 1).Guard(0)
				fill, probe := ascending, ascending[keys-1:]
				if row.tree {
					fill = shuffled(keys)
					probe = fill
				}
				for _, k := range fill {
					set.Insert(g, k)
				}
				// records[i] is how many records the search for probe[i] visits.
				records := []int{keys + 1}
				if row.tree {
					records = make([]int, len(probe))
					w := &tracingGuard{Guard: g}
					for i, k := range probe {
						w.reset()
						set.Contains(w, k)
						records[i] = len(w.slots)
					}
				}
				total := 0
				for _, r := range records {
					total += r
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if k := probe[i%len(probe)]; !set.Contains(g, k) {
						b.Fatalf("key %d missing", k)
					}
				}
				visited := b.N / len(probe) * total
				for _, r := range records[:b.N%len(probe)] {
					visited += r
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/record")
			})
		}
	}
}
