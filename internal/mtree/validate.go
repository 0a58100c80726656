package mtree

import (
	"fmt"
	"math"
	"slices"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// Validate checks the tree's structural invariants, used by the test
// suite and available to callers debugging a corrupted volume: everything
// a restore checks (check), and
//
//  1. every covering radius bounds the distance from the routing object
//     to every object in its subtree,
//  2. every stored parent distance matches the actual distance to the
//     parent routing object (when finite),
//  3. every box covers the points and boxes of the node below it.
func (t *Tree) Validate() error { return t.check(true) }

// check walks every node once from the root without charging page
// accesses. It rejects a child page outside the volume or reached twice,
// a page the codec rejects, an entry id
// outside the dataset, an inline object of another kind, and a leaf
// directory, point table or size that disagrees with the leaves. With
// geometry it also checks Validate's invariants, paying distance
// computations.
func (t *Tree) check(geometry bool) error {
	const eps = 1e-9
	sp, sample := t.ds.Space(), t.ds.Sample()
	seen := make([]bool, t.pager.Pages())
	held := 0
	var walk func(pid store.PageID, parent *entry) ([]core.Object, error)
	walk = func(pid store.PageID, parent *entry) ([]core.Object, error) {
		if int(pid) >= len(seen) || seen[pid] {
			return nil, fmt.Errorf("mtree: child page %d is outside the %d-page volume or reached twice", pid, len(seen))
		}
		seen[pid] = true
		n, err := t.decode(pid, t.pager.Peek(pid))
		if err != nil {
			return nil, err
		}
		var objs []core.Object
		for i := range n.entries {
			e := &n.entries[i]
			if e.obj != nil && !core.SameKind(sample, e.obj) {
				return nil, fmt.Errorf("mtree: page %d entry %d holds an object of another kind", pid, i)
			}
			if geometry && parent != nil {
				if t.fam.ball && !math.IsInf(e.pd, 1) {
					if want := sp.Distance(e.obj, parent.obj); math.Abs(want-e.pd) > eps {
						return nil, fmt.Errorf("mtree: page %d entry %d parent distance %v, actual %v", pid, i, e.pd, want)
					}
				}
				lo, hi := e.box(n.leaf)
				plo, phi := parent.box(false)
				for d := range t.pivots {
					if lo[d] < plo[d]-eps || hi[d] > phi[d]+eps {
						return nil, fmt.Errorf("mtree: page %d entry %d exceeds its parent's box along pivot %d", pid, i, d)
					}
				}
			}
			if n.leaf {
				if e.id < 0 || int(e.id) >= t.ds.Len() || !t.holds(e, pid) {
					return nil, fmt.Errorf("mtree: leaf %d holds object %d, outside the dataset's %d ids or not where the directory says", pid, e.id, t.ds.Len())
				}
				held++
				if geometry && t.fam.ball {
					objs = append(objs, e.obj)
				}
				continue
			}
			sub, err := walk(e.child, e)
			if err != nil {
				return nil, err
			}
			for _, o := range sub {
				if d := sp.Distance(e.obj, o); d > e.radius+eps {
					return nil, fmt.Errorf("mtree: page %d entry %d radius %v below object distance %v", pid, i, e.radius, d)
				}
			}
			objs = append(objs, sub...)
		}
		return objs, nil
	}
	if _, err := walk(t.root, nil); err != nil {
		return err
	}
	if dir := len(t.leafOf) + len(t.points); held != dir || held != t.size {
		return fmt.Errorf("mtree: the leaves hold %d objects, the directory %d, the size %d", held, dir, t.size)
	}
	return nil
}

// holds reports whether the directory agrees that leaf entry e lives in
// page pid: the M-tree's names the page, the R-tree's holds the point.
func (t *Tree) holds(e *entry, pid store.PageID) bool {
	if t.fam.ball {
		got, ok := t.leafOf[int(e.id)]
		return ok && got == pid
	}
	pt, ok := t.points[int(e.id)]
	return ok && slices.EqualFunc(pt, e.v, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}
