package bptree

import (
	"testing"

	"metricindex/internal/store"
)

// restoreTree builds a 5 000-key tree on 4 KB pages, lets edit rewrite
// its pages, and restores a handle over them.
func restoreTree(t *testing.T, edit func(tr *Tree)) error {
	t.Helper()
	tr := New(store.NewPager(4096), nil)
	for i := uint64(0); i < 5000; i++ {
		if err := tr.Insert(i*7, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Restore(tr.pager, nil, tr.Root(), tr.Len()); err != nil {
		t.Fatalf("the intact tree does not restore: %v", err)
	}
	edit(tr)
	_, err := Restore(tr.pager, nil, tr.Root(), tr.Len())
	return err
}

// editNode rewrites node pid through fn.
func editNode(t *testing.T, tr *Tree, pid store.PageID, fn func(n *Node)) {
	t.Helper()
	n, err := tr.readNode(pid)
	if err != nil {
		t.Fatal(err)
	}
	fn(n)
	tr.writeNode(pid, n)
}

// TestRestoreRejectsSelfChild: a root that is its own first child must be
// rejected at restore. Accepted, RangeScan descended into it forever.
func TestRestoreRejectsSelfChild(t *testing.T) {
	err := restoreTree(t, func(tr *Tree) {
		editNode(t, tr, tr.Root(), func(n *Node) {
			if n.Leaf {
				t.Fatal("the 5000-key tree's root is a leaf")
			}
			n.Children[0] = tr.Root()
		})
	})
	if err == nil {
		t.Fatal("Restore accepted a root that is its own child")
	}
}

// TestRestoreRejectsSelfNext: a leaf whose next page is itself must be
// rejected at restore. Accepted, a scan past it followed the chain
// forever.
func TestRestoreRejectsSelfNext(t *testing.T) {
	err := restoreTree(t, func(tr *Tree) {
		leaf, _, err := tr.LeafFor(0)
		if err != nil {
			t.Fatal(err)
		}
		editNode(t, tr, leaf, func(n *Node) { n.Next = leaf })
	})
	if err == nil {
		t.Fatal("Restore accepted a leaf whose next page is itself")
	}
}

// TestRestoreRejectsWrongSize: a size the leaves do not hold must be
// rejected at restore.
func TestRestoreRejectsWrongSize(t *testing.T) {
	tr := New(store.NewPager(4096), nil)
	for i := uint64(0); i < 300; i++ {
		if err := tr.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Restore(tr.pager, nil, tr.Root(), tr.Len()+1); err == nil {
		t.Fatal("Restore accepted a size one above the leaves' records")
	}
}
