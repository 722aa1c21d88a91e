package abtree

import (
	"strings"
	"testing"

	"nbr/internal/mem"
	"nbr/internal/smr/leaky"
)

// threeLevels builds a quiescent tree of the keys 1…400 through the write
// path (leaky: nothing is freed) and returns it with its root, its root's
// first child and that child's first leaf.
func threeLevels(t *testing.T) (tr *Tree, root, in, lf *node) {
	t.Helper()
	tr = New(1)
	g := leaky.New(tr.Arena(), 1).Guard(0)
	for k := uint64(1); k <= 400; k++ {
		tr.Insert(g, k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	root = tr.pool.Raw(childAt(tr.pool.Raw(tr.entry), 0))
	in = tr.pool.Raw(childAt(root, 0))
	lf = tr.pool.Raw(childAt(in, 0))
	if root.leaf != 0 || in.leaf != 0 || lf.leaf == 0 || root.size < 2 {
		t.Fatal("400 ascending keys did not build a three-level tree")
	}
	return tr, root, in, lf
}

// TestValidateRejects corrupts one thing per case in a valid tree and
// requires Validate to report it: each of validate's error returns is the
// oracle for some structural invariant the write phases keep.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name, want string
		corrupt    func(tr *Tree, root, in, lf *node)
	}{
		{"leaf keys out of order", "not sorted", func(_ *Tree, _, _, lf *node) {
			lf.keys[0], lf.keys[1] = lf.keys[1], lf.keys[0]
		}},
		{"leaf key outside its window", "leaf key", func(_ *Tree, _, in, lf *node) {
			lf.keys[lf.size-1] = in.keys[0] // the first router bounds the first leaf
		}},
		{"router outside its window", "router", func(_ *Tree, root, in, _ *node) {
			in.keys[in.size-2] = root.keys[0] + 1
		}},
		{"unequal leaf depth", "unbalanced", func(tr *Tree, root, _, _ *node) {
			// Hoist the second subtree's first leaf into its parent's place:
			// its keys still fit the window, one level up.
			root.children[1] = tr.pool.Raw(childAt(root, 1)).children[0]
		}},
		{"internal node below its minimum", "below minimum", func(_ *Tree, _, in, _ *node) {
			in.size = A - 1
		}},
		{"dead node reachable", "dead node", func(_ *Tree, _, _, lf *node) {
			kill(lf)
		}},
		{"freed node reachable", "freed node", func(tr *Tree, _, in, _ *node) {
			tr.pool.Free(0, childAt(in, 0))
		}},
		{"nil child reachable", "nil child", func(_ *Tree, _, in, _ *node) {
			in.children[0] = uint64(mem.Null)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, root, in, lf := threeLevels(t)
			c.corrupt(tr, root, in, lf)
			err := tr.Validate()
			if err == nil {
				t.Fatal("Validate accepted the corrupted tree")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %q, want an error naming %q", err, c.want)
			}
		})
	}
}
