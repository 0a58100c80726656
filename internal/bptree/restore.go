package bptree

import (
	"fmt"

	"metricindex/internal/store"
)

// Restore rebinds a tree handle over a reopened pager volume whose pages
// already hold the nodes. Node capacities are re-derived from the page
// size; only the root page and entry count need to be supplied (they come
// from the owning index's snapshot payload). The pages are checked before
// the handle is returned (check), so a volume whose checksum holds but
// whose pages do not form the tree cannot loop or crash a query.
func Restore(p *store.Pager, aug Augmenter, root store.PageID, size int) (*Tree, error) {
	if size < 0 {
		return nil, fmt.Errorf("bptree: negative size %d", size)
	}
	t := &Tree{
		pager:   p,
		aug:     aug,
		root:    root,
		size:    size,
		leafCap: (p.PageSize() - leafHeader) / leafEntrySize,
		intCap:  (p.PageSize() - internalHeader) / intEntrySize,
	}
	if t.leafCap < 4 || t.intCap < 4 {
		return nil, fmt.Errorf("bptree: page size %d too small", p.PageSize())
	}
	if err := t.check(); err != nil {
		return nil, err
	}
	return t, nil
}

// check walks the tree once, depth first and left to right, through
// Pager.Peek, so it charges no page access. It rejects a child page
// outside the volume or reached twice (a cycle, or a page two nodes
// share), a node View rejects, a leaf whose next page is not the leaf the
// walk reaches after it (or, for the last leaf, not InvalidPage), and a
// record count other than the tree's size.
func (t *Tree) check() error {
	seen := make([]bool, t.pager.Pages())
	stack := []store.PageID{t.root}
	var next store.PageID // the last leaf's right sibling
	leaves, records := 0, 0
	for len(stack) > 0 {
		pid := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(pid) >= len(seen) || seen[pid] {
			return fmt.Errorf("bptree: page %d is outside the %d-page volume or reached twice", pid, len(seen))
		}
		seen[pid] = true
		v, err := t.view(pid, t.pager.Peek(pid))
		if err != nil {
			return err
		}
		if !v.Leaf() {
			for i := v.Len() - 1; i >= 0; i-- {
				c, _, _ := v.Child(i)
				stack = append(stack, c)
			}
			continue
		}
		if leaves > 0 && next != pid {
			return fmt.Errorf("bptree: leaf chain names page %d where the tree's next leaf is page %d", next, pid)
		}
		next = v.Next()
		leaves++
		records += v.Len()
	}
	if next != store.InvalidPage {
		return fmt.Errorf("bptree: the last leaf's next page is %d, not the end of the chain", next)
	}
	if records != t.size {
		return fmt.Errorf("bptree: the leaves hold %d records, the snapshot says %d", records, t.size)
	}
	return nil
}
