package mtree

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// far reports whether an entry's region lies beyond radius r of the
// query by the tests that cost no distance computation: the M-tree's
// parent-distance filter |d(q,par) − d(o,par)| > r + radius (dp =
// d(q,par), ∞ when unknown), then Lemma 1 on the leaf's point or the
// routing entry's box against the query's point qd.
func far(e *entry, leaf bool, dp float64, qd []float64, r float64) bool {
	if !math.IsInf(dp, 1) && !math.IsInf(e.pd, 1) && math.Abs(dp-e.pd) > r+e.radius {
		return true
	}
	lo, hi := e.box(leaf)
	for i, q := range qd {
		if leaf {
			if math.Abs(q-lo[i]) > r {
				return true
			}
		} else if lo[i] > q+r || hi[i] < q-r {
			return true
		}
	}
	return false
}

// RangeSearch answers MRQ(q, r) depth first: far's tests skip entries
// without a distance computation, covering balls prune by Lemma 2, and
// the surviving leaf entries are verified on their objects once the walk
// is done.
func (t *Tree) RangeSearch(q core.Object, r float64) ([]int, error) {
	sc, qd := t.query(q)
	defer t.scratch.Put(sc)
	sp := t.ds.Space()
	var cands []entry
	var walk func(pid store.PageID, dParent float64) error
	walk = func(pid store.PageID, dParent float64) error {
		n, err := t.read(pid)
		if err != nil {
			return err
		}
		for i := range n.entries {
			e := &n.entries[i]
			if far(e, n.leaf, dParent, qd, r) {
				continue
			}
			if n.leaf {
				cands = append(cands, *e)
				continue
			}
			d := math.Inf(1)
			if t.fam.ball {
				if d = sp.Distance(q, e.obj); core.PruneBall(d, e.radius, r) {
					continue
				}
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
	var res []int
	for _, c := range cands {
		var err error
		if !t.fam.ball { // the object lives in the RAF
			if c.obj, err = t.raf.ReadObject(int(c.id)); err != nil {
				return nil, err
			}
		}
		if sp.Distance(q, c.obj) <= r {
			res = append(res, int(c.id))
		}
	}
	sort.Ints(res)
	return res, nil
}

// subtree is a subtree queued for best-first traversal.
type subtree struct {
	pid store.PageID
	dp  float64 // d(q, routing object) of the entry leading here (∞ without balls)
}

// KNNSearch answers MkNNQ(q, k) best first:
// subtrees in ascending lower-bound order (the larger of the ball's and
// the box's bounds), the radius tightened by verified objects (§5.1,
// §5.2). The M-tree runs far's tests before paying a routing or leaf
// distance; the R-tree verifies a leaf's entries in ascending point
// lower-bound order, each a RAF read, until the bound passes the radius.
func (t *Tree) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc, qd := t.query(q)
	defer t.scratch.Put(sc)
	sp, h := t.ds.Space(), sc.Heap(k)
	var pq core.MinHeap[subtree]
	var cands []cand
	pq.Push(0, 0, subtree{t.root, math.Inf(1)})
	for it, ok := pq.PopWithin(h.Radius()); ok; it, ok = pq.PopWithin(h.Radius()) {
		n, err := t.read(it.V.pid)
		if err != nil {
			return nil, err
		}
		if n.leaf && !t.fam.ball {
			if cands, err = t.verifyLeaf(n, q, qd, h, cands[:0]); err != nil {
				return nil, err
			}
			continue
		}
		for i := range n.entries {
			e := &n.entries[i]
			if t.fam.ball && far(e, n.leaf, it.V.dp, qd, h.Radius()) {
				continue
			}
			if n.leaf {
				h.Push(int(e.id), sp.Distance(q, e.obj))
				continue
			}
			d, lb := math.Inf(1), 0.0
			if t.fam.ball {
				d = sp.Distance(q, e.obj)
				lb = core.BallMinDist(d, e.radius)
			}
			lo, hi := e.box(false)
			lb = max(lb, core.BoxMinDist(qd, lo, hi), it.LB)
			if lb <= h.Radius() {
				pq.Push(lb, 0, subtree{e.child, d})
			}
		}
	}
	return h.Result(), nil
}

// cand is an R-tree leaf entry awaiting verification.
type cand struct {
	id int
	lb float64
}

// verifyLeaf verifies an R-tree leaf's entries against the RAF in
// ascending lower-bound order, so the radius tightens as early as
// possible; cands is the buffer it sorts them in, returned for reuse.
func (t *Tree) verifyLeaf(n *node, q core.Object, qd []float64, h *core.KNNHeap, cands []cand) ([]cand, error) {
	for i := range n.entries {
		cands = append(cands, cand{int(n.entries[i].id), core.PivotLowerBound(qd, n.entries[i].v)})
	}
	slices.SortFunc(cands, func(a, b cand) int { return cmp.Compare(a.lb, b.lb) })
	for _, c := range cands {
		if c.lb > h.Radius() {
			break
		}
		o, err := t.raf.ReadObject(c.id)
		if err != nil {
			return cands, err
		}
		h.Push(c.id, t.ds.Space().Distance(q, o))
	}
	return cands, nil
}

// query computes q's point into pooled scratch, which the caller puts
// back when the query is done.
func (t *Tree) query(q core.Object) (*core.Scratch, []float64) {
	sc := t.scratch.Get()
	qd := sc.GrowQD(len(t.pivots))
	t.ds.Space().DistanceMany(q, t.pivots, qd)
	return sc, qd
}
