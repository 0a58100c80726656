package omni

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/rtree"
	"metricindex/internal/store"
)

// RTree is the OmniR-tree (§5.2): an R-tree over the pivot-space points
// with the objects in the RAF. The paper's experiments use this member as
// the family's representative because it performs best.
type RTree struct {
	*base
	tree   *rtree.Tree
	points map[int][]float64 // id -> coordinates (for deletes)
}

// Options tunes construction.
type Options struct {
	// MaxDistance bounds pivot distances (d+), used to quantize the
	// Hilbert bulk-load ordering.
	MaxDistance float64
	// Workers parallelizes the pivot-table precompute during
	// construction: 0 or 1 builds sequentially, negative uses GOMAXPROCS,
	// otherwise that many goroutines.
	Workers int
}

// NewRTree bulk-loads the OmniR-tree over all live objects.
func NewRTree(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*RTree, error) {
	b, err := newBase(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	maxD := opts.MaxDistance
	if maxD <= 0 {
		maxD = 1
	}
	tree, err := rtree.New(pager, len(pivots), maxD)
	if err != nil {
		return nil, err
	}
	t := &RTree{base: b, tree: tree, points: make(map[int][]float64)}
	ids := ds.LiveIDs()
	pts := t.buildPoints(ids, opts.Workers)
	entries := make([]rtree.Entry, 0, ds.Count())
	for i, id := range ids {
		off, err := t.appendRAF(id)
		if err != nil {
			return nil, err
		}
		t.points[id] = pts[i]
		entries = append(entries, rtree.Entry{ID: int32(id), RAFOff: uint64(off), Point: pts[i]})
	}
	if err := tree.BulkLoad(entries); err != nil {
		return nil, err
	}
	return t, nil
}

// Name returns "OmniR-tree".
func (t *RTree) Name() string { return "OmniR-tree" }

// Len returns the number of indexed objects.
func (t *RTree) Len() int { return t.tree.Len() }

// RangeSearch answers MRQ(q, r): the R-tree reports every point inside
// SR(q) (Lemma 1), and each candidate is fetched from the RAF and
// verified (§5.2).
func (t *RTree) RangeSearch(q core.Object, r float64) ([]int, error) {
	sc, qd := t.queryPoint(q)
	defer t.scratch.Put(sc)
	lo, hi := searchBox(qd, r)
	var candidates []int
	if err := t.tree.Search(lo, hi, func(e *rtree.Entry) bool {
		candidates = append(candidates, int(e.ID))
		return true
	}); err != nil {
		return nil, err
	}
	var res []int
	for _, id := range candidates {
		ok, err := t.verifyRange(q, id, r)
		if err != nil {
			return nil, err
		}
		if ok {
			res = append(res, id)
		}
	}
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k) best-first: R-tree nodes in ascending
// pivot-space MINDIST order (a lower bound of the true distance by
// Lemma 1), leaf candidates verified against the RAF with a tightening
// radius (§5.2).
func (t *RTree) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc, qd := t.queryPoint(q)
	defer t.scratch.Put(sc)
	h := sc.Heap(k)
	var pq core.MinHeap[store.PageID]
	pq.Push(0, 0, t.tree.Root())
	for it, ok := pq.PopWithin(h.Radius()); ok; it, ok = pq.PopWithin(h.Radius()) {
		n, err := t.tree.ReadNode(it.V)
		if err != nil {
			return nil, err
		}
		if n.Leaf {
			// Verify entries in ascending lower-bound order so the radius
			// tightens as early as possible.
			type cand struct {
				id int
				lb float64
			}
			cands := make([]cand, 0, len(n.Entries))
			for i := range n.Entries {
				lb := core.PivotLowerBound(qd, n.Entries[i].Point)
				cands = append(cands, cand{int(n.Entries[i].ID), lb})
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].lb < cands[j].lb })
			for _, c := range cands {
				if c.lb > h.Radius() {
					break
				}
				o, err := t.loadObject(c.id)
				if err != nil {
					return nil, err
				}
				h.Push(c.id, t.ds.Space().Distance(q, o))
			}
			continue
		}
		for i := range n.Children {
			lb := core.BoxMinDist(qd, n.Lo[i], n.Hi[i])
			if lb < it.LB {
				lb = it.LB
			}
			if lb <= h.Radius() {
				pq.Push(lb, 0, n.Children[i])
			}
		}
	}
	return h.Result(), nil
}

// Insert appends the object to the RAF and the R-tree.
func (t *RTree) Insert(id int) error {
	if _, dup := t.points[id]; dup {
		return fmt.Errorf("omni: duplicate insert of %d", id)
	}
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("omni: insert of deleted or out-of-range id %d", id)
	}
	off, err := t.appendRAF(id)
	if err != nil {
		return err
	}
	pt := t.point(o)
	t.points[id] = pt
	return t.tree.Insert(rtree.Entry{ID: int32(id), RAFOff: uint64(off), Point: pt})
}

// Delete removes the object from the R-tree (descending by its stored
// coordinates) and the RAF directory.
func (t *RTree) Delete(id int) error {
	pt, ok := t.points[id]
	if !ok {
		return fmt.Errorf("omni: delete of unindexed object %d", id)
	}
	if err := t.tree.Delete(id, pt); err != nil {
		return err
	}
	delete(t.points, id)
	return t.raf.Delete(id)
}

// PageAccesses reports the pager's accesses (R-tree + RAF).
func (t *RTree) PageAccesses() int64 { return t.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (t *RTree) ResetStats() { t.pager.ResetStats() }

// MemBytes reports the in-memory footprint (pivot table and the
// coordinate directory used for deletes).
func (t *RTree) MemBytes() int64 {
	return int64(len(t.points)) * int64(8+8*len(t.pivotVals))
}

// DiskBytes reports the on-disk footprint (R-tree pages + RAF pages).
func (t *RTree) DiskBytes() int64 { return t.pager.DiskBytes() }
