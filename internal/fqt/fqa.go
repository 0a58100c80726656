// Package fqt implements the Fixed Queries Array (FQA [11]), the compact
// array form of the Fixed Queries Tree for discrete distance functions.
// The FQT itself is the FQT family of internal/ptree.
package fqt

import (
	"fmt"
	"math"
	"sort"

	"metricindex/internal/core"
)

// FQA is the Fixed Queries Array [11]: the compact array form of FQT. All
// objects are sorted lexicographically by their discrete distance vector
// to the shared pivots; a query narrows the candidate interval with a
// binary search on the first pivot's distance band and filters the
// survivors with Lemma 1 on the stored vectors. The paper lists FQA in
// Table 1 next to FQT; it is included here for completeness and the
// ablation benchmarks.
type FQA struct {
	ds        *core.Dataset
	pivotIDs  []int
	pivotVals []core.Object
	ids       []int32
	vecs      [][]int32 // vecs[i] is ids[i]'s discrete distance vector
}

// NewFQA builds the sorted array over all live objects.
func NewFQA(ds *core.Dataset, pivots []int) (*FQA, error) {
	if !ds.Space().Metric().Discrete() {
		return nil, fmt.Errorf("fqa: %w: %s", core.ErrNotDiscrete, ds.Space().Metric().Name())
	}
	if len(pivots) == 0 {
		return nil, fmt.Errorf("fqa: no pivots")
	}
	a := &FQA{ds: ds, pivotIDs: append([]int(nil), pivots...)}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("fqa: pivot %d is not a live object", p)
		}
		a.pivotVals = append(a.pivotVals, v)
	}
	for _, id := range ds.LiveIDs() {
		if err := a.Insert(id); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Name returns "FQA".
func (a *FQA) Name() string { return "FQA" }

// Len returns the number of indexed objects.
func (a *FQA) Len() int { return len(a.ids) }

func (a *FQA) vector(o core.Object) []int32 {
	sp := a.ds.Space()
	v := make([]int32, len(a.pivotVals))
	for i, p := range a.pivotVals {
		v[i] = int32(sp.Distance(o, p))
	}
	return v
}

func lexLess(x, y []int32) bool {
	for i := range x {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// queryDists computes d(q, p_i) for every pivot.
func (a *FQA) queryDists(q core.Object) []float64 {
	qd := make([]float64, len(a.pivotVals))
	sp := a.ds.Space()
	for i, p := range a.pivotVals {
		qd[i] = sp.Distance(q, p)
	}
	return qd
}

// RangeSearch answers MRQ(q, r): binary search narrows the array to the
// first pivot's band [d(q,p1)−r, d(q,p1)+r], then Lemma 1 filters on the
// remaining pivots before verification.
func (a *FQA) RangeSearch(q core.Object, r float64) ([]int, error) {
	qd := a.queryDists(q)
	lo := int32(math.Ceil(qd[0] - r))
	hi := int32(math.Floor(qd[0] + r))
	start := sort.Search(len(a.ids), func(i int) bool { return a.vecs[i][0] >= lo })
	var res []int
	for i := start; i < len(a.ids) && a.vecs[i][0] <= hi; i++ {
		if pruneVec(qd, a.vecs[i], r) {
			continue
		}
		if a.ds.DistanceTo(q, int(a.ids[i])) <= r {
			res = append(res, int(a.ids[i]))
		}
	}
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k): the array is walked outward from the
// query's first-pivot band, tightening the radius as candidates verify.
func (a *FQA) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	qd := a.queryDists(q)
	h := core.NewKNNHeap(k)
	n := len(a.ids)
	center := sort.Search(n, func(i int) bool { return float64(a.vecs[i][0]) >= qd[0] })
	left, right := center-1, center
	for left >= 0 || right < n {
		r := h.Radius()
		// Pick the side whose first-pivot deviation is smaller.
		var i int
		leftDev, rightDev := math.Inf(1), math.Inf(1)
		if left >= 0 {
			leftDev = math.Abs(qd[0] - float64(a.vecs[left][0]))
		}
		if right < n {
			rightDev = math.Abs(qd[0] - float64(a.vecs[right][0]))
		}
		var dev float64
		if leftDev <= rightDev {
			i, dev = left, leftDev
			left--
		} else {
			i, dev = right, rightDev
			right++
		}
		if dev > r {
			break // every remaining vector deviates more on pivot 1
		}
		if !math.IsInf(r, 1) && pruneVec(qd, a.vecs[i], r) {
			continue
		}
		h.Push(int(a.ids[i]), a.ds.DistanceTo(q, int(a.ids[i])))
	}
	return h.Result(), nil
}

func pruneVec(qd []float64, od []int32, r float64) bool {
	for i := range qd {
		if d := math.Abs(qd[i] - float64(od[i])); d > r {
			return true
		}
	}
	return false
}

// Insert places the object's vector at its sorted position.
func (a *FQA) Insert(id int) error {
	o := a.ds.Object(id)
	if o == nil {
		return fmt.Errorf("fqa: insert of deleted object %d", id)
	}
	v := a.vector(o)
	pos := sort.Search(len(a.vecs), func(i int) bool { return !lexLess(a.vecs[i], v) })
	a.ids = append(a.ids, 0)
	copy(a.ids[pos+1:], a.ids[pos:])
	a.ids[pos] = int32(id)
	a.vecs = append(a.vecs, nil)
	copy(a.vecs[pos+1:], a.vecs[pos:])
	a.vecs[pos] = v
	return nil
}

// Delete removes the object, locating it via its distance vector.
func (a *FQA) Delete(id int) error {
	o := a.ds.Object(id)
	if o == nil {
		return fmt.Errorf("fqa: delete needs the object still present in the dataset (id %d)", id)
	}
	v := a.vector(o)
	pos := sort.Search(len(a.vecs), func(i int) bool { return !lexLess(a.vecs[i], v) })
	for i := pos; i < len(a.ids); i++ {
		if lexLess(v, a.vecs[i]) {
			break
		}
		if int(a.ids[i]) == id {
			a.ids = append(a.ids[:i], a.ids[i+1:]...)
			a.vecs = append(a.vecs[:i], a.vecs[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("fqa: delete of unindexed object %d", id)
}

// PageAccesses returns 0: FQA is an in-memory index.
func (a *FQA) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (a *FQA) ResetStats() {}

// MemBytes reports the array's resident size.
func (a *FQA) MemBytes() int64 {
	return int64(len(a.ids))*4 + int64(len(a.ids)*len(a.pivotVals))*4
}

// DiskBytes returns 0.
func (a *FQA) DiskBytes() int64 { return 0 }
