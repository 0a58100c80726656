package omni

import (
	"fmt"
	"sort"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// BPlus is the OmniB+-tree (§5.2): one B+-tree per pivot, each indexing
// d(o, p_i) -> object id. A range query scans every tree's key band and
// intersects the candidate sets — which is why the paper notes the family
// member suffers redundant storage and I/O compared to the OmniR-tree.
type BPlus struct {
	base    persist.Omni
	ds      *core.Dataset
	trees   []*bptree.Tree
	size    int
	ids     map[int]bool
	scratch core.ScratchPool // per-query coordinates and heap
}

// NewBPlus builds the per-pivot B+-trees over all live objects. workers
// parallelizes the pivot-table precompute (0 or 1 = sequential, negative =
// GOMAXPROCS).
func NewBPlus(ds *core.Dataset, pager *store.Pager, pivots []int, workers int) (*BPlus, error) {
	b, err := persist.NewOmni(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	t := &BPlus{base: b, ds: ds, ids: make(map[int]bool)}
	for range pivots {
		t.trees = append(t.trees, bptree.New(pager, nil))
	}
	ids, cols := core.BuildDistCols(ds, ds.LiveIDs(), b.Pivots, workers)
	for i, id32 := range ids {
		id := int(id32)
		if t.ids[id] {
			return nil, fmt.Errorf("omni: duplicate insert of %d", id)
		}
		if _, err := t.appendRAF(id); err != nil {
			return nil, err
		}
		for j, tr := range t.trees {
			if err := tr.Insert(bptree.KeyFromFloat(cols[j][i]), uint64(id)); err != nil {
				return nil, err
			}
		}
		t.ids[id] = true
		t.size++
	}
	return t, nil
}

// Name returns "OmniB+-tree".
func (t *BPlus) Name() string { return "OmniB+-tree" }

// Len returns the number of indexed objects.
func (t *BPlus) Len() int { return t.size }

// candidates intersects the per-pivot key bands [qd_i − r, qd_i + r]
// (Lemma 1 evaluated tree by tree).
func (t *BPlus) candidates(qd []float64, r float64) ([]int, error) {
	var cur map[int]bool
	for i, tr := range t.trees {
		lo := qd[i] - r
		if lo < 0 {
			lo = 0
		}
		hi := qd[i] + r
		band := make(map[int]bool)
		err := tr.RangeScan(bptree.KeyFromFloat(lo), bptree.KeyFromFloat(hi), func(k, v uint64) bool {
			id := int(v)
			if cur == nil || cur[id] {
				band[id] = true
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		cur = band
		if len(cur) == 0 {
			return nil, nil
		}
	}
	out := make([]int, 0, len(cur))
	for id := range cur {
		out = append(out, id)
	}
	sort.Ints(out)
	return out, nil
}

// RangeSearch answers MRQ(q, r) by band intersection plus verification.
func (t *BPlus) RangeSearch(q core.Object, r float64) ([]int, error) {
	sc, qd := t.queryPoint(q)
	defer t.scratch.Put(sc)
	cands, err := t.candidates(qd, r)
	if err != nil {
		return nil, err
	}
	var res []int
	for _, id := range cands {
		ok, err := t.verifyRange(q, id, r)
		if err != nil {
			return nil, err
		}
		if ok {
			res = append(res, id)
		}
	}
	return res, nil
}

// KNNSearch answers MkNNQ(q, k) with the incremental-radius strategy
// (§2.1 method one): grow the band until k verified neighbors fit inside
// it. Revisited candidates across rounds are remembered so each object is
// verified once.
func (t *BPlus) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 || t.size == 0 {
		return nil, nil
	}
	sc, qd := t.queryPoint(q)
	defer t.scratch.Put(sc)
	h := sc.Heap(k)
	seen := make(map[int]bool)
	// Start from a small band and double.
	r := t.initialRadius(qd)
	for {
		cands, err := t.candidates(qd, r)
		if err != nil {
			return nil, err
		}
		for _, id := range cands {
			if seen[id] {
				continue
			}
			seen[id] = true
			o, err := t.base.RAF.ReadObject(id)
			if err != nil {
				return nil, err
			}
			h.Push(id, t.ds.Space().Distance(q, o))
		}
		if h.Len() >= min(k, t.size) && h.Radius() <= r {
			return h.Result(), nil
		}
		if len(seen) >= t.size {
			return h.Result(), nil
		}
		r *= 2
	}
}

// initialRadius seeds the incremental search with a small positive band.
func (t *BPlus) initialRadius(qd []float64) float64 {
	var m float64
	for _, d := range qd {
		if d > m {
			m = d
		}
	}
	if m == 0 {
		return 1
	}
	return m / 64
}

// Insert adds the object to every per-pivot tree and the RAF.
func (t *BPlus) Insert(id int) error {
	if t.ids[id] {
		return fmt.Errorf("omni: duplicate insert of %d", id)
	}
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("omni: insert of deleted or out-of-range id %d", id)
	}
	if _, err := t.appendRAF(id); err != nil {
		return err
	}
	pt := t.point(o)
	for i, tr := range t.trees {
		if err := tr.Insert(bptree.KeyFromFloat(pt[i]), uint64(id)); err != nil {
			return err
		}
	}
	t.ids[id] = true
	t.size++
	return nil
}

// Delete removes the object from every tree (recomputing its coordinates)
// and the RAF.
func (t *BPlus) Delete(id int) error {
	if !t.ids[id] {
		return fmt.Errorf("omni: delete of unindexed object %d", id)
	}
	pt := t.point(t.ds.Object(id))
	for i, tr := range t.trees {
		if err := tr.Delete(bptree.KeyFromFloat(pt[i]), uint64(id)); err != nil {
			return err
		}
	}
	delete(t.ids, id)
	t.size--
	return t.base.RAF.Delete(id)
}

// MemBytes reports the id directory size.
func (t *BPlus) MemBytes() int64 { return int64(len(t.ids)) * 9 }
