package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Module reports whether the package belongs to the module under
	// analysis (loaded from source) as opposed to a standard-library
	// dependency (imported from export data, Files == nil).
	Module bool
}

// Session owns one type-checker universe: a shared FileSet, the set of
// loaded packages, the export-data importer for standard-library
// dependencies, and the fact store every pass shares. All analysis in one
// nbrvet invocation (or one test) runs inside a single Session so that
// types.Object identities — and therefore facts — line up across packages.
type Session struct {
	Fset  *token.FileSet
	Facts *FactStore

	moduleDir string
	pkgs      map[string]*Package // loaded module packages, by import path
	order     []string            // module packages in dependency order
	exports   map[string]string   // import path -> export data file (stdlib)
	gc        types.Importer      // export-data importer (caches internally)
	sizes     types.Sizes

	factPass  func(*Pass) error
	factsDone map[string]bool
}

// SetFactPass registers the pass Analyze runs over every loaded module
// package (dependencies first) before any analyzer, exactly once per
// package. nbrvet uses it to compute the protocol facts — restartability and
// bracket summaries — that make the analyzers interprocedural.
func (s *Session) SetFactPass(fn func(*Pass) error) { s.factPass = fn }

// NewSession creates a Session rooted at the module directory (where
// `go list` runs; for nbrvet this is the repo root).
func NewSession(moduleDir string) *Session {
	s := &Session{
		Fset:      token.NewFileSet(),
		Facts:     NewFactStore(),
		moduleDir: moduleDir,
		pkgs:      make(map[string]*Package),
		exports:   make(map[string]string),
		factsDone: make(map[string]bool),
		sizes:     types.SizesFor("gc", runtime.GOARCH),
	}
	s.gc = importer.ForCompiler(s.Fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := s.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data recorded for %q", path)
		}
		return os.Open(file)
	})
	return s
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` for the given patterns in the
// module directory. CGO is disabled so every standard-library dependency has
// a pure-Go build with complete export data, offline.
func (s *Session) goList(patterns []string) ([]*listEntry, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Imports,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = s.moduleDir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var entries []*listEntry
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", e.ImportPath, e.Error.Err)
		}
		entries = append(entries, &e)
	}
	return entries, nil
}

// Load loads the packages matching the go-list patterns (plus their
// dependencies), type-checking module packages from source in dependency
// order and recording export data for standard-library ones. It returns the
// pattern-matched module packages in dependency order — the order analyzers
// must run in for facts to flow from dependencies to dependents.
func (s *Session) Load(patterns ...string) ([]*Package, error) {
	entries, err := s.goList(patterns)
	if err != nil {
		return nil, err
	}
	targets := make(map[string]bool)
	// `go list -deps` emits dependencies before dependents; keep that order.
	for _, e := range entries {
		if e.Standard {
			if e.Export != "" {
				s.exports[e.ImportPath] = e.Export
			}
			continue
		}
		if !e.DepOnly {
			targets[e.ImportPath] = true
		}
		if _, done := s.pkgs[e.ImportPath]; done {
			continue
		}
		if _, err := s.loadSource(e); err != nil {
			return nil, err
		}
	}
	var out []*Package
	for _, path := range s.order {
		if targets[path] {
			out = append(out, s.pkgs[path])
		}
	}
	return out, nil
}

// loadSource parses and type-checks one module package from source.
func (s *Session) loadSource(e *listEntry) (*Package, error) {
	var files []*ast.File
	for _, name := range e.GoFiles {
		f, err := parser.ParseFile(s.Fset, filepath.Join(e.Dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return s.check(e.ImportPath, e.Dir, files)
}

// LoadDir parses and type-checks every .go file directly inside dir as one
// package, resolving its imports through the session (loading them first if
// needed). This is the analysistest path: testdata corpora live in
// directories the go tool ignores, but import the real module packages, so
// the analyzers run against the genuine smr/mem/nbr types.
func (s *Session) LoadDir(dir string) (*Package, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	importSet := make(map[string]bool)
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(s.Fset, filepath.Join(dir, de.Name()), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				importSet[p] = true
			}
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var need []string
	for p := range importSet {
		if p == "unsafe" {
			continue
		}
		if _, ok := s.pkgs[p]; ok {
			continue
		}
		if _, ok := s.exports[p]; ok {
			continue
		}
		need = append(need, p)
	}
	sort.Strings(need)
	if len(need) > 0 {
		if _, err := s.Load(need...); err != nil {
			return nil, err
		}
	}
	return s.check("testdata/"+filepath.Base(dir), dir, files)
}

// check runs the type checker over one package's parsed files and registers
// the result in the session.
func (s *Session) check(path, dir string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: (*sessionImporter)(s), Sizes: s.sizes}
	tpkg, err := conf.Check(path, s.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Module: true}
	s.pkgs[path] = p
	s.order = append(s.order, path)
	return p, nil
}

// sessionImporter resolves imports during type checking: module packages by
// the source-loaded *types.Package (so objects are shared across the
// session), everything else through compiler export data.
type sessionImporter Session

func (si *sessionImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := si.pkgs[path]; ok {
		return p.Types, nil
	}
	return (*Session)(si).gc.Import(path)
}
