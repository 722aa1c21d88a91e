package smr_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRetirePathWrittenOnce pins that the retire seam is written once: under
// internal/core and internal/smr, only smr.Limbo declares Retire,
// RetireBatch, RetireSegment or BeforeSegment. A scheme supplies its
// per-handoff behavior through the Policy hooks (Before, Landed), so a
// second copy of a retire method — which would drift from the kernel's
// counters, chunking and garbage-age sample — fails here, as does a Policy
// that grows past those hooks and FullPass.
func TestRetirePathWrittenOnce(t *testing.T) {
	seam := map[string]bool{"Retire": true, "RetireBatch": true, "RetireSegment": true, "BeforeSegment": true}
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, root := range []string{".", "../core"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if f.Name.Name == "smr" {
					checkPolicy(t, decl)
				}
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !seam[fn.Name.Name] {
					continue
				}
				typ := receiverType(fn.Recv.List[0].Type)
				if f.Name.Name == "smr" && typ == "Limbo" {
					found[fn.Name.Name] = true
					continue
				}
				t.Errorf("%s: %s.%s declares %s; the retire path belongs to smr.Limbo alone",
					fset.Position(fn.Pos()), f.Name.Name, typ, fn.Name.Name)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"Retire", "RetireBatch", "RetireSegment"} {
		if !found[name] {
			t.Errorf("smr.Limbo no longer declares %s", name)
		}
	}
}

// checkPolicy requires the Policy interface, if decl declares it, to be
// exactly the three hooks the kernel calls back through.
func checkPolicy(t *testing.T, decl ast.Decl) {
	gd, ok := decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "Policy" {
			continue
		}
		var got []string
		for _, m := range ts.Type.(*ast.InterfaceType).Methods.List {
			for _, n := range m.Names {
				got = append(got, n.Name)
			}
		}
		if strings.Join(got, " ") != "FullPass Before Landed" {
			t.Errorf("smr.Policy declares %v, want exactly FullPass, Before and Landed", got)
		}
	}
}

// receiverType names a method receiver's base type: T for T, *T, T[P] and
// *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
