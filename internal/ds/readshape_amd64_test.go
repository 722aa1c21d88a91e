package ds_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReadPathShape disassembles the two fused searches and requires every
// slot resolution in them — the instructions the compiler attributes to the
// unsafe.Add line of mem.(*Pool).slotAt — to be the index mask and the
// address arithmetic DESIGN.md §4 "The shape of slotAt" describes, and
// nothing more: two LEAQ for the lazy list's 24-byte slots, a shift and an
// add for the DGT tree's 32-byte routers and 16-byte leaves. A slotAt that
// panics inside its bounds test, or a compiler that folds the field offsets
// into the scaled address, puts more ops on the chain of every link, and
// TestReadPathInlines, which sees only inlining, passes either way.
// Register copies, spills to the stack and the jump to the merge point are
// not counted: none of them is on the chain.
func TestReadPathShape(t *testing.T) {
	line := resolveLine(t)
	for _, c := range []struct {
		pkg, sym string
		want     []string
	}{
		{"lazylist", `lazylist.\(\*List\).search$`, []string{"ANDL $0x7ffffff,", "LEAQ ", "LEAQ "}},
		{"dgtbst", `dgtbst.\(\*Tree\).search$`, []string{"ANDL $0x7ffffff,", "SHLQ $0x", "ADDQ "}},
	} {
		bin := filepath.Join(t.TempDir(), c.pkg+".test")
		if out, err := exec.Command("go", "test", "-c", "-o", bin, "./"+c.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go test -c ./%s: %v\n%s", c.pkg, err, out)
		}
		out, err := exec.Command("go", "tool", "objdump", "-s", c.sym, bin).CombinedOutput()
		if err != nil {
			t.Fatalf("go tool objdump -s %s: %v\n%s", c.sym, err, out)
		}
		blocks := resolutions(string(out), line)
		if len(blocks) == 0 {
			t.Errorf("%s: no instruction of %s in %s; is slotAt still inlined?", c.pkg, line, c.sym)
		}
		for _, ops := range blocks {
			if !slices.EqualFunc(ops, c.want, strings.HasPrefix) {
				t.Errorf("%s: a link resolves in %q at %s, want %q and nothing more (DESIGN.md §4 \"The shape of slotAt\")",
					c.pkg, ops, line, c.want)
			}
		}
	}
}

// resolveLine returns the file:line objdump reports slotAt's address
// arithmetic at: the line of its unsafe.Add.
func resolveLine(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "mem", "pool.go"))
	if err != nil {
		t.Fatal(err)
	}
	in := false
	for i, ln := range strings.Split(string(src), "\n") {
		switch {
		case strings.HasPrefix(ln, "func (p *Pool[T]) slotAt("):
			in = true
		case in && ln == "}":
			in = false
		case in && strings.Contains(ln, "unsafe.Add("):
			return fmt.Sprintf("pool.go:%d", i+1)
		}
	}
	t.Fatal("mem/pool.go: no unsafe.Add in slotAt")
	return ""
}

// resolutions returns the instructions of each run of consecutive objdump
// lines at line, without register-to-register moves, spills, jumps and
// padding; a run of nothing else is not a resolution.
func resolutions(dump, line string) [][]string {
	var blocks [][]string
	var cur []string
	for _, ln := range append(strings.Split(dump, "\n"), "") {
		f := strings.FieldsFunc(ln, func(r rune) bool { return r == '\t' })
		for i := range f {
			f[i] = strings.TrimSpace(f[i])
		}
		if len(f) < 4 || f[0] != line {
			if len(cur) > 0 {
				blocks, cur = append(blocks, cur), nil
			}
			continue
		}
		name, args, _ := strings.Cut(f[3], " ")
		move := strings.HasPrefix(name, "MOV") && (!strings.ContainsAny(args, "($") || strings.HasSuffix(args, "(SP)"))
		if !move && name != "JMP" && !strings.HasPrefix(name, "NOP") {
			cur = append(cur, f[3])
		}
	}
	return blocks
}
