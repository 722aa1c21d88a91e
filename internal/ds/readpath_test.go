package ds_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nbr/internal/catalog"
	"nbr/internal/ds"
	"nbr/internal/ds/lazylist"
)

// structures are the four packages that own a barriered copy — the read
// barrier every traversal pays per visited record — each in the methods whose
// names begin with read (read, and readLeaf for dgtbst's leaves; Read in
// marklist, which harrislist, hmlist and hashmap traverse through), in the
// file named after the package.
var structures = []string{"abtree", "dgtbst", "lazylist", "marklist"}

// inlined are the calls that must disappear into every read helper: the
// barrier's load-and-compare, the one-lookup slot accessor, and the slab
// resolution under it. The read path's speed is these three inlining
// decisions, and nothing else in the suite notices when one is lost.
var inlined = map[string]*regexp.Regexp{
	"smr.(*Barrier).Protect": regexp.MustCompile(`inlining call to smr\.\(\*Barrier\)\.Protect$`),
	"mem.(*Pool).Slot":       regexp.MustCompile(`inlining call to mem\.\(\*Pool\[.*\]\)\.Slot$`),
	"mem.(*Pool).slotAt":     regexp.MustCompile(`inlining call to mem\.\(\*Pool\[.*\]\)\.slotAt$`),
}

// helper is one read helper: its name and line range.
type helper struct {
	name        string
	first, last int
}

// readHelpers returns every method of the structure's file whose name begins
// with read, in either case.
func readHelpers(t *testing.T, file string) []helper {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var hs []helper
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && strings.HasPrefix(strings.ToLower(fn.Name.Name), "read") {
			hs = append(hs, helper{fn.Name.Name, fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line})
		}
	}
	if len(hs) == 0 {
		t.Fatalf("%s declares no read method", file)
	}
	return hs
}

// TestReadPathInlines compiles the structures with the compiler's inlining
// report on and requires each of the three calls inside every read helper.
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
		msg  string
	}
	var sites []site
	for _, ln := range strings.Split(string(out), "\n") {
		if m := diag.FindStringSubmatch(ln); m != nil && m[1] == m[2] {
			n, _ := strconv.Atoi(m[3])
			sites = append(sites, site{m[1], n, m[4]})
		}
	}
	for _, pkg := range structures {
		for _, h := range readHelpers(t, filepath.Join(pkg, pkg+".go")) {
			for name, re := range inlined {
				found := false
				for _, s := range sites {
					if s.pkg == pkg && s.line >= h.first && s.line <= h.last && re.MatchString(s.msg) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %s is not inlined into %s (lines %d-%d); see `go build -gcflags=-m=2` for the cost that went over budget",
						pkg, name, h.name, h.first, h.last)
				}
			}
		}
	}
}

// BenchmarkReadBarrier measures the read path per visited record: a Contains
// that walks a whole 1024-key lazy list, under a fast-path scheme with
// signals (nbr+), one without (debra) and an announcing one that always
// falls through (hp). ns/record is the number to watch; allocs/op must be 0.
func BenchmarkReadBarrier(b *testing.B) {
	const keys = 1024
	for _, scheme := range []string{"nbr+", "debra", "hp"} {
		b.Run(scheme, func(b *testing.B) {
			l := lazylist.New(1)
			sch, err := catalog.NewSchemeFor(scheme, l.Arena(), 1, catalog.DefaultSchemeConfig(), l.Requirements())
			if err != nil {
				b.Fatal(err)
			}
			// Through the interface, as every harness calls a structure.
			var set ds.Set = l
			g := sch.Guard(0)
			for k := uint64(1); k <= keys; k++ {
				set.Insert(g, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !set.Contains(g, keys) {
					b.Fatalf("key %d missing", keys)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(keys+1), "ns/record")
		})
	}
}
