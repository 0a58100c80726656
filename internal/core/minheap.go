package core

import "slices"

// Ranked is one entry of a best-first traversal's queue: LB, a lower bound
// of d(q, o) for every object o the entry leads to; Tie, which orders
// entries of equal bound; and V, what the traversal expands when the entry
// pops.
type Ranked[T any] struct {
	LB  float64
	Tie uint32
	V   T
}

// ahead is the heap order — bound, then tie: whether an entry of bound lb
// and tie-break tie pops before one of bound lb2 and tie-break tie2. It
// reads the concrete fields alone, so it inlines whatever T is.
//
//metriclint:noalloc
func ahead(lb float64, tie uint32, lb2 float64, tie2 uint32) bool {
	return lb < lb2 || lb == lb2 && tie < tie2
}

// MinHeap is the priority queue of every best-first traversal — the tree
// families, the SPB-tree and the pivot table's block visitor: a binary
// min-heap ordered by (LB, Tie). Its sifts are container/heap's up and
// down, written with a moving hole, so with every Tie 0 it pops in exactly
// container/heap's order after the same pushes, equal bounds included: on
// a disk index, that order decides which pages a query reads.
//
// The zero value is an empty heap. Push grows it the way append does, so a
// heap that is reused, or Reserved for its widest frontier, pushes without
// allocating; a heap local to one query allocates O(log frontier) times.
type MinHeap[T any] struct {
	h []Ranked[T]
}

// Len returns the number of entries.
//
//metriclint:noalloc
func (h *MinHeap[T]) Len() int { return len(h.h) }

// Reset empties the heap, keeping its capacity.
//
//metriclint:noalloc
func (h *MinHeap[T]) Reset() { h.h = h.h[:0] }

// Reserve makes room for n entries in all, so that pushes up to that many
// allocate nothing.
func (h *MinHeap[T]) Reserve(n int) {
	if n > cap(h.h) {
		h.h = slices.Grow(h.h, n-len(h.h))
	}
}

// Push adds v with bound lb and tie-break tie. It sits at the inliner's
// budget (go build -gcflags=-m=2 reports its cost), so a call inlines
// into the traversal loops as the hand-written heaps it replaced did;
// adding to it makes every push a call.
//
//metriclint:noalloc
func (h *MinHeap[T]) Push(lb float64, tie uint32, v T) {
	i := len(h.h)
	//metriclint:ignore noalloc grows past the reserved capacity only; a reused heap stops at its widest frontier
	h.h = append(h.h, Ranked[T]{})
	for i > 0 {
		p := (i - 1) / 2
		if !ahead(lb, tie, h.h[p].LB, h.h[p].Tie) {
			break
		}
		h.h[i] = h.h[p]
		i = p
	}
	h.h[i] = Ranked[T]{LB: lb, Tie: tie, V: v}
}

// PopWithin removes and returns the least entry, unless the heap is empty
// or that entry's bound exceeds limit: then it reports false and leaves the
// heap as it is. It is the one per-pop step of a best-first loop — with
// limit the current search radius, a false ends the traversal, since no
// entry left can lead to an object within it. A NaN bound or limit never
// exceeds, so the entry pops.
//
//metriclint:noalloc
func (h *MinHeap[T]) PopWithin(limit float64) (Ranked[T], bool) {
	if len(h.h) == 0 || h.h[0].LB > limit {
		return Ranked[T]{}, false
	}
	top := h.h[0]
	n := len(h.h) - 1
	e := h.h[n]
	h.h = h.h[:n]
	if n == 0 {
		return top, true
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && ahead(h.h[m+1].LB, h.h[m+1].Tie, h.h[m].LB, h.h[m].Tie) {
			m++
		}
		if !ahead(h.h[m].LB, h.h[m].Tie, e.LB, e.Tie) {
			break
		}
		h.h[i] = h.h[m]
		i = m
	}
	h.h[i] = e
	return top, true
}
