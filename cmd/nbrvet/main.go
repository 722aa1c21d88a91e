// Command nbrvet statically enforces the NBR usage protocol over a Go
// package tree: restartable read phases (readphase), guard-bracket ordering
// (bracket), lease goroutine-affinity (leaseescape), protected record
// access (guardderef), and atomic-only access to pool record fields
// (recordatomic). See DESIGN.md §13 for the enforced rules and the
// //nbr:restartable and //nbr:allow annotation grammar.
//
// Usage:
//
//	nbrvet [packages]
//
// with the usual go-tool package patterns (default ./...). Exits nonzero if
// any diagnostic survives suppression, so it can gate CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"nbr/internal/analysis/bracket"
	"nbr/internal/analysis/framework"
	"nbr/internal/analysis/guardderef"
	"nbr/internal/analysis/leaseescape"
	"nbr/internal/analysis/protocol"
	"nbr/internal/analysis/readphase"
	"nbr/internal/analysis/recordatomic"
)

var analyzers = []*framework.Analyzer{
	readphase.Analyzer,
	bracket.Analyzer,
	leaseescape.Analyzer,
	guardderef.Analyzer,
	recordatomic.Analyzer,
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nbrvet [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "\n%s:\n%s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbrvet:", err)
		os.Exit(2)
	}
	session := framework.NewSession(root)
	session.SetFactPass(protocol.ComputeFacts)
	pkgs, err := session.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbrvet:", err)
		os.Exit(2)
	}
	findings, err := session.Analyze(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbrvet:", err)
		os.Exit(2)
	}
	framework.Print(os.Stderr, findings)
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the go.mod, so package
// patterns resolve the same way the go tool would.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
