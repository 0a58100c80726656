package mtree

import (
	"math"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// ringsPrune applies Lemma 1 to a ring set (PM-tree): true when the rings
// cannot intersect the search region.
func ringsPrune(rings, qd []float64, r float64) bool {
	for i := range qd {
		if rings[2*i] > qd[i]+r || rings[2*i+1] < qd[i]-r {
			return true
		}
	}
	return false
}

// ringsMinDist is core.BoxMinDist over the interleaved rings: the L∞ lower
// bound from the query's pivot image to the rings, for best-first ordering.
func ringsMinDist(rings, qd []float64) float64 {
	var m float64
	for i, q := range qd {
		if d := core.IntervalDist(q, rings[2*i], rings[2*i+1]); d > m {
			m = d
		}
	}
	return m
}

// pdistPrune applies Lemma 1 to a leaf entry's exact pivot distances.
func pdistPrune(pdists, qd []float64, r float64) bool {
	for i := range qd {
		if d := math.Abs(qd[i] - pdists[i]); d > r {
			return true
		}
	}
	return false
}

// QueryDists computes d(q, p_i) for the shared pivots (nil for a plain
// M-tree). Call once per query and pass to the searches.
func (t *Tree) QueryDists(q core.Object) []float64 {
	if t.opts.NumPivots == 0 {
		return nil
	}
	sp := t.ds.Space()
	qd := make([]float64, len(t.pivots))
	for i, p := range t.pivots {
		qd[i] = sp.Distance(q, p)
	}
	return qd
}

// RangeSearch answers MRQ(q, r) with depth-first traversal: the
// parent-distance filter skips entries without computing d(q, RO); rings
// (Lemma 1) and covering radii (Lemma 2) prune subtrees; leaf entries are
// verified on their decoded objects.
func (t *Tree) RangeSearch(q core.Object, r float64, qd []float64) ([]int, error) {
	sp := t.ds.Space()
	var res []int
	var walk func(pid store.PageID, dParent float64) error
	walk = func(pid store.PageID, dParent float64) error {
		n, err := t.readNode(pid)
		if err != nil {
			return err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				// Parent-distance filter: |d(q,par) − d(o,par)| > r.
				if !math.IsInf(dParent, 1) && !math.IsInf(e.pd, 1) &&
					math.Abs(dParent-e.pd) > r {
					continue
				}
				if qd != nil && pdistPrune(e.pdists, qd, r) {
					continue
				}
				if sp.Distance(q, e.obj) <= r {
					res = append(res, int(e.id))
				}
				continue
			}
			// Routing entry: parent-distance filter on the ball.
			if !math.IsInf(dParent, 1) && !math.IsInf(e.pd, 1) &&
				math.Abs(dParent-e.pd) > r+e.radius {
				continue
			}
			if qd != nil && ringsPrune(e.rings, qd, r) {
				continue
			}
			d := sp.Distance(q, e.obj)
			if core.PruneBall(d, e.radius, r) { // Lemma 2
				continue
			}
			if err := walk(e.child, d); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, math.Inf(1)); err != nil {
		return nil, err
	}
	sort.Ints(res)
	return res, nil
}

// subtree is a subtree queued for best-first traversal.
type subtree struct {
	pid store.PageID
	dp  float64 // d(q, routing object) of the entry leading here
}

// KNNSearch answers MkNNQ(q, k) best-first: subtrees are visited in
// ascending lower-bound order (the maximum of the ball bound and the ring
// bound), with the radius tightened by verified objects (§5.1).
func (t *Tree) KNNSearch(q core.Object, k int, qd []float64) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sp := t.ds.Space()
	h := core.NewKNNHeap(k)
	var pq core.MinHeap[subtree]
	pq.Push(0, 0, subtree{t.root, math.Inf(1)})
	for it, ok := pq.PopWithin(h.Radius()); ok; it, ok = pq.PopWithin(h.Radius()) {
		dp := it.V.dp
		n, err := t.readNode(it.V.pid)
		if err != nil {
			return nil, err
		}
		for i := range n.entries {
			e := &n.entries[i]
			r := h.Radius()
			if n.leaf {
				if !math.IsInf(r, 1) {
					if !math.IsInf(dp, 1) && !math.IsInf(e.pd, 1) &&
						math.Abs(dp-e.pd) > r {
						continue
					}
					if qd != nil && pdistPrune(e.pdists, qd, r) {
						continue
					}
				}
				h.Push(int(e.id), sp.Distance(q, e.obj))
				continue
			}
			if !math.IsInf(r, 1) {
				if !math.IsInf(dp, 1) && !math.IsInf(e.pd, 1) &&
					math.Abs(dp-e.pd) > r+e.radius {
					continue
				}
				if qd != nil && ringsPrune(e.rings, qd, r) {
					continue
				}
			}
			d := sp.Distance(q, e.obj)
			lb := core.BallMinDist(d, e.radius)
			if qd != nil {
				if rb := ringsMinDist(e.rings, qd); rb > lb {
					lb = rb
				}
			}
			if lb < it.LB {
				lb = it.LB
			}
			if lb <= h.Radius() {
				pq.Push(lb, 0, subtree{e.child, d})
			}
		}
	}
	return h.Result(), nil
}
