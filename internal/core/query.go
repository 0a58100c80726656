package core

import (
	"cmp"
	"math"
	"slices"
)

// Neighbor is one element of a k-nearest-neighbor answer.
type Neighbor struct {
	// ID is the dataset identifier of the answer object.
	ID int
	// Dist is its distance to the query object.
	Dist float64
}

// SortNeighbors orders neighbors by ascending distance, breaking ties by
// ascending identifier so answers are deterministic and comparable across
// indexes.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.Dist == b.Dist:
			return cmp.Compare(a.ID, b.ID)
		}
		return 0 // a NaN distance orders with nothing
	})
}

// KNNHeap maintains the k best candidates seen so far during a kNN search.
// It is a bounded max-heap: Radius() is the distance of the current k-th
// nearest neighbor (the search radius that verification tightens), or +Inf
// while fewer than k candidates have been collected.
//
// A NaN distance is never a neighbour: Push drops it, as a range query's
// d ≤ r drops it. The heap then holds the k least of the candidates'
// distances under the total order (distance, id), so its Result does
// not depend on the order the candidates were pushed in.
//
// The heap is hand-sifted rather than built on container/heap: Push sits
// on the per-candidate kNN hot path, and heap.Push boxes each Neighbor
// into an `any` — one heap allocation per candidate. All storage is
// reserved once in NewKNNHeap; Push is allocation-free (see the noalloc
// annotations and the AllocsPerRun test).
type KNNHeap struct {
	k     int
	items []Neighbor
}

// above reports whether item i outranks item j in the max-heap: greater
// distance first, greater id first among ties (so the evicted candidate
// is always the worst, and answers stay deterministic).
//
//metriclint:noalloc
func (h *KNNHeap) above(i, j int) bool {
	if h.items[i].Dist != h.items[j].Dist {
		return h.items[i].Dist > h.items[j].Dist
	}
	return h.items[i].ID > h.items[j].ID
}

//metriclint:noalloc
func (h *KNNHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//metriclint:noalloc
func (h *KNNHeap) siftDown(i int) {
	n := len(h.items)
	for {
		top := i
		if l := 2*i + 1; l < n && h.above(l, top) {
			top = l
		}
		if r := 2*i + 2; r < n && h.above(r, top) {
			top = r
		}
		if top == i {
			return
		}
		h.items[i], h.items[top] = h.items[top], h.items[i]
		i = top
	}
}

// NewKNNHeap creates a heap that retains the k nearest candidates. A
// non-positive k yields a zero-capacity heap: every candidate is rejected
// and the answer is empty, matching the MkNNQ definition (not one
// neighbor, as a silent k=1 coercion would produce). All storage is
// reserved here; Push never reallocates.
func NewKNNHeap(k int) *KNNHeap {
	if k < 0 {
		k = 0
	}
	return &KNNHeap{k: k, items: make([]Neighbor, 0, k)}
}

// Reset re-arms the heap for a new query with capacity k, growing the
// backing array only when k exceeds every capacity seen before — the
// scratch-reuse hook that keeps steady-state kNN queries allocation-free.
func (h *KNNHeap) Reset(k int) {
	if k < 0 {
		k = 0
	}
	h.k = k
	if cap(h.items) < k {
		h.items = make([]Neighbor, 0, k)
	} else {
		h.items = h.items[:0]
	}
}

// K returns the heap capacity.
//
//metriclint:noalloc
func (h *KNNHeap) K() int { return h.k }

// Radius returns the current pruning radius: the k-th best distance, or
// +Inf while the heap is not yet full. A zero-capacity heap wants nothing,
// so its radius is -Inf (every candidate is prunable).
//
//metriclint:noalloc
func (h *KNNHeap) Radius() float64 {
	if h.k == 0 {
		return math.Inf(-1)
	}
	if len(h.items) < h.k {
		return math.Inf(1)
	}
	return h.items[0].Dist
}

// Push offers a candidate; it is kept only if it improves the answer.
// A NaN distance orders with nothing and is dropped.
//
//metriclint:noalloc
func (h *KNNHeap) Push(id int, dist float64) {
	if h.k == 0 || dist != dist {
		return
	}
	if n := len(h.items); n < h.k {
		h.items = h.items[:n+1] // within the capacity reserved by NewKNNHeap
		h.items[n] = Neighbor{ID: id, Dist: dist}
		h.siftUp(n)
		return
	}
	top := h.items[0]
	if dist < top.Dist || (dist == top.Dist && id < top.ID) {
		h.items[0] = Neighbor{ID: id, Dist: dist}
		h.siftDown(0)
	}
}

// Len returns the number of candidates currently held.
//
//metriclint:noalloc
func (h *KNNHeap) Len() int { return len(h.items) }

// Result extracts the k nearest neighbors sorted by ascending distance.
// The heap is consumed.
func (h *KNNHeap) Result() []Neighbor {
	res := make([]Neighbor, len(h.items))
	copy(res, h.items)
	SortNeighbors(res)
	return res
}

// BruteForceRange answers MRQ(q, r) by exhaustive scan; it is the
// correctness baseline for every index. The result is sorted by id.
func BruteForceRange(ds *Dataset, q Object, r float64) []int {
	var res []int
	for id, o := range ds.Objects() {
		if o == nil {
			continue
		}
		if ds.space.Distance(q, o) <= r {
			res = append(res, id)
		}
	}
	return res
}

// BruteForceKNN answers MkNNQ(q, k) by exhaustive scan; it is the
// correctness baseline for every index. An object at a NaN distance is
// never among the neighbours (see KNNHeap), so fewer than k neighbours
// come back when fewer than k objects have a distance that is a number.
func BruteForceKNN(ds *Dataset, q Object, k int) []Neighbor {
	h := NewKNNHeap(k)
	for id, o := range ds.Objects() {
		if o == nil {
			continue
		}
		h.Push(id, ds.space.Distance(q, o))
	}
	return h.Result()
}
