package table

import (
	"fmt"
	"math"
	"sort"

	"metricindex/internal/core"
)

// AESA is the Approximating and Eliminating Search Algorithm of [28]: it
// stores the full n×n distance matrix, so every already-verified object
// acts as a pivot for the rest of the search. Its O(n²) storage makes it
// "a theoretical metric index" (§3.1) — the paper describes it but
// excludes it from the large-scale experiments, and so do we; it serves as
// the strongest-possible-filtering baseline in tests and small examples.
type AESA struct {
	ds      *core.Dataset
	ids     []int32
	rowOf   map[int]int
	dist    [][]float64 // symmetric matrix over rows
	scratch core.ScratchPool
}

// queryState draws per-query scratch and returns the zeroed lower-bound
// and visited arrays (steady-state queries reuse the same buffers).
func (a *AESA) queryState() (sc *core.Scratch, lb []float64, done []bool) {
	n := len(a.ids)
	sc = a.scratch.Get()
	lb = sc.GrowLB(n)
	for i := range lb {
		lb[i] = 0
	}
	done = sc.GrowDone(n)
	return sc, lb, done
}

// NewAESA builds the full distance matrix (n(n-1)/2 computations through
// the counted space).
func NewAESA(ds *core.Dataset) (*AESA, error) {
	a := &AESA{ds: ds, rowOf: make(map[int]int)}
	for _, id := range ds.LiveIDs() {
		if err := a.Insert(id); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// Name returns "AESA".
func (a *AESA) Name() string { return "AESA" }

// Len returns the number of indexed objects.
func (a *AESA) Len() int { return len(a.ids) }

// RangeSearch answers MRQ(q, r) with the classic AESA loop: repeatedly
// verify the unpruned object with the smallest lower bound, then use its
// (stored) distances to every other object to tighten all lower bounds.
func (a *AESA) RangeSearch(q core.Object, r float64) ([]int, error) {
	n := len(a.ids)
	sc, lb, done := a.queryState()
	defer a.scratch.Put(sc)
	var res []int
	for remaining := n; remaining > 0; remaining-- {
		best, bestLB := -1, math.Inf(1)
		for row := 0; row < n; row++ {
			if !done[row] && lb[row] < bestLB {
				bestLB = lb[row]
				best = row
			}
		}
		if best < 0 || bestLB > r {
			break // every remaining object is pruned
		}
		done[best] = true
		d := a.ds.DistanceTo(q, int(a.ids[best]))
		if d <= r {
			res = append(res, int(a.ids[best]))
		}
		for row := 0; row < n; row++ {
			if done[row] {
				continue
			}
			if b := math.Abs(d - a.dist[best][row]); b > lb[row] {
				lb[row] = b
			}
		}
	}
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k) with the same approximate-and-eliminate
// loop, shrinking the radius as the heap fills.
func (a *AESA) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	n := len(a.ids)
	sc, lb, done := a.queryState()
	defer a.scratch.Put(sc)
	h := sc.Heap(k)
	for remaining := n; remaining > 0; remaining-- {
		best, bestLB := -1, math.Inf(1)
		for row := 0; row < n; row++ {
			if !done[row] && lb[row] < bestLB {
				bestLB = lb[row]
				best = row
			}
		}
		if best < 0 || bestLB > h.Radius() {
			break
		}
		done[best] = true
		d := a.ds.DistanceTo(q, int(a.ids[best]))
		h.Push(int(a.ids[best]), d)
		for row := 0; row < n; row++ {
			if done[row] {
				continue
			}
			if b := math.Abs(d - a.dist[best][row]); b > lb[row] {
				lb[row] = b
			}
		}
	}
	return h.Result(), nil
}

// Insert adds an object, computing its distance to every indexed object.
func (a *AESA) Insert(id int) error {
	if _, dup := a.rowOf[id]; dup {
		return fmt.Errorf("aesa: duplicate insert of %d", id)
	}
	if a.ds.Object(id) == nil {
		return fmt.Errorf("aesa: insert of deleted or out-of-range id %d", id)
	}
	row := len(a.ids)
	newRow := make([]float64, row+1)
	for r2 := 0; r2 < row; r2++ {
		d := a.ds.Distance(id, int(a.ids[r2]))
		newRow[r2] = d
		a.dist[r2] = append(a.dist[r2], d)
	}
	a.dist = append(a.dist, newRow)
	a.rowOf[id] = row
	a.ids = append(a.ids, int32(id))
	return nil
}

// Delete removes an object's row and column from the matrix.
func (a *AESA) Delete(id int) error {
	row, ok := a.rowOf[id]
	if !ok {
		return fmt.Errorf("aesa: delete of unindexed object %d", id)
	}
	last := len(a.ids) - 1
	lastID := int(a.ids[last])
	// Move last row/column into the vacated slot.
	a.ids[row] = a.ids[last]
	a.ids = a.ids[:last]
	for r2 := range a.dist {
		a.dist[r2][row] = a.dist[r2][last]
		a.dist[r2] = a.dist[r2][:last]
	}
	a.dist[row] = a.dist[last]
	a.dist = a.dist[:last]
	if row < last {
		a.dist[row][row] = 0
	}
	a.rowOf[lastID] = row
	delete(a.rowOf, id)
	return nil
}

// PageAccesses returns 0: AESA is an in-memory index.
func (a *AESA) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (a *AESA) ResetStats() {}

// MemBytes reports the O(n²) matrix size.
func (a *AESA) MemBytes() int64 {
	n := int64(len(a.ids))
	return n*n*8 + n*4
}

// DiskBytes returns 0.
func (a *AESA) DiskBytes() int64 { return 0 }
