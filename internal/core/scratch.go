package core

import (
	"slices"
	"sync"
)

// Scratch is the per-query working memory of a pivot-table scan:
// query-pivot distances, the per-row lower-bound column, candidate
// chunks for batched verification, widened query coordinates, and the
// kNN heap. Indexes draw one from their ScratchPool per query and
// return it afterwards, so steady-state queries allocate nothing — the
// Grow methods only reallocate when a query needs more capacity than any
// earlier one on the same Scratch.
//
// A Scratch is not safe for concurrent use; the pool hands each
// concurrent query its own.
type Scratch struct {
	// QD holds d(q, p_i) for every pivot of the scan.
	QD []float64
	// LB holds the per-row Lemma-1 lower bounds of an elimination scan
	// (AESA).
	LB []float64
	// Out receives batched verification distances for one chunk.
	Out []float64
	// IDs collects the candidate ids of one verification chunk.
	IDs []int32
	// Rows collects candidate row numbers when they differ from ids.
	Rows []int32
	// Sur receives the surviving row numbers of a column sweep
	// (SurviveColumns) over one block of rows.
	Sur []int32
	// Zones is the best-first heap of a blocked table scan: the
	// super-zones and blocks of the pivot table it still has to visit.
	Zones MinHeap[struct{}]
	// Keys collects the ids of a range answer; KeyBuf and Digits are the
	// second buffer and the digit counters of the radix sort ordering it.
	Keys, KeyBuf []uint64
	Digits       []int
	// Objs gathers candidate objects for a DistanceMany chunk.
	Objs []Object
	// Q64 and Q32 hold widened query coordinates for the flat kernels.
	Q64 []float64
	Q32 []float32
	// Done marks visited rows for elimination-style scans (AESA).
	Done []bool

	heap *KNNHeap
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// GrowQD sizes and returns the query-pivot distance buffer.
func (s *Scratch) GrowQD(n int) []float64 {
	s.QD = growF64(s.QD, n)
	return s.QD
}

// GrowLB sizes and returns the lower-bound column.
func (s *Scratch) GrowLB(n int) []float64 {
	s.LB = growF64(s.LB, n)
	return s.LB
}

// GrowSur sizes and returns the column-sweep survivor buffer.
func (s *Scratch) GrowSur(n int) []int32 {
	if cap(s.Sur) < n {
		s.Sur = make([]int32, n)
	} else {
		s.Sur = s.Sur[:n]
	}
	return s.Sur
}

// GrowRadix sizes and returns the radix sort's second key buffer (n keys)
// and its digit counters (digits of them).
func (s *Scratch) GrowRadix(n, digits int) ([]uint64, []int) {
	if cap(s.KeyBuf) < n {
		s.KeyBuf = make([]uint64, n)
	}
	if cap(s.Digits) < digits {
		s.Digits = make([]int, digits)
	}
	return s.KeyBuf[:n], s.Digits[:digits]
}

// GrowDone sizes and clears the visited-row marks.
func (s *Scratch) GrowDone(n int) []bool {
	if cap(s.Done) < n {
		s.Done = make([]bool, n)
	} else {
		s.Done = s.Done[:n]
		for i := range s.Done {
			s.Done[i] = false
		}
	}
	return s.Done
}

// GrowChunk sizes the verification-chunk buffers (IDs, Rows, Objs, Out)
// to hold n candidates.
func (s *Scratch) GrowChunk(n int) {
	if cap(s.IDs) < n {
		s.IDs = make([]int32, n)
	} else {
		s.IDs = s.IDs[:n]
	}
	if cap(s.Rows) < n {
		s.Rows = make([]int32, n)
	} else {
		s.Rows = s.Rows[:n]
	}
	if cap(s.Objs) < n {
		s.Objs = make([]Object, n)
	} else {
		s.Objs = s.Objs[:n]
	}
	s.Out = growF64(s.Out, n)
}

// Heap returns the scratch kNN heap re-armed for capacity k.
func (s *Scratch) Heap(k int) *KNNHeap {
	if s.heap == nil {
		s.heap = NewKNNHeap(k)
		return s.heap
	}
	s.heap.Reset(k)
	return s.heap
}

// ScratchPool hands out per-query Scratch values. The zero value is
// ready to use. It is a thin wrapper over sync.Pool, so concurrent
// queries on one index (the batch engine's normal mode) each get their
// own buffers, and idle buffers are reclaimed by the GC rather than
// pinned forever.
type ScratchPool struct {
	p sync.Pool
}

// Get returns a Scratch, reusing a pooled one when available. A cold
// pool allocates the Scratch shell — by design, so Get cannot carry the
// noalloc annotation; steady state never reaches that branch.
func (sp *ScratchPool) Get() *Scratch {
	if s, ok := sp.p.Get().(*Scratch); ok {
		return s
	}
	return &Scratch{}
}

// Put returns a Scratch to the pool for the next query.
//
//metriclint:noalloc
func (sp *ScratchPool) Put(s *Scratch) {
	sp.p.Put(s)
}

// FlatVecs is a row-major flat coordinate mirror of vector objects — the
// struct-of-arrays companion of a pivot table. Row r of the mirror holds
// the coordinates of the object in table row r, kept in lockstep by
// Append / SwapDelete, so candidate verification reads one contiguous
// block per candidate with no Object indirection. Vector and IntVector
// objects mirror into float64 (int32 widens exactly); Vector32 objects
// mirror into float32.
type FlatVecs struct {
	// Dim is the common coordinate count of every mirrored row.
	Dim  int
	f64  []float64
	f32  []float32
	is32 bool
}

// NewFlatVecs builds an empty mirror shaped like the sample object, or
// nil when the sample is not a vector type the flat kernels understand
// (the caller then stays on the Object verification path).
func NewFlatVecs(sample Object) *FlatVecs {
	switch v := sample.(type) {
	case Vector:
		if len(v) == 0 {
			return nil
		}
		return &FlatVecs{Dim: len(v)}
	case IntVector:
		if len(v) == 0 {
			return nil
		}
		return &FlatVecs{Dim: len(v)}
	case Vector32:
		if len(v) == 0 {
			return nil
		}
		return &FlatVecs{Dim: len(v), is32: true}
	}
	return nil
}

// Rows returns the number of mirrored rows.
func (f *FlatVecs) Rows() int {
	if f.is32 {
		return len(f.f32) / f.Dim
	}
	return len(f.f64) / f.Dim
}

// Resize makes the mirror hold rows rows, keeping the first ones; rows
// it adds hold no object until Set.
func (f *FlatVecs) Resize(rows int) {
	if f.is32 {
		f.f32 = resize(f.f32, rows*f.Dim)
		return
	}
	f.f64 = resize(f.f64, rows*f.Dim)
}

// resize returns s with length n, growing its backing array the way
// append does.
func resize[T any](s []T, n int) []T {
	if n > len(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// Set mirrors one object into an existing row. It reports false —
// without modifying the mirror — when the object's type or dimension
// does not match; the owning index then drops the mirror and falls back
// to Object verification. Sets of distinct rows may run concurrently.
func (f *FlatVecs) Set(row int, o Object) bool {
	switch v := o.(type) {
	case Vector:
		if f.is32 || len(v) != f.Dim {
			return false
		}
		copy(f.f64[row*f.Dim:(row+1)*f.Dim], v)
	case IntVector:
		if f.is32 || len(v) != f.Dim {
			return false
		}
		dst := f.f64[row*f.Dim : (row+1)*f.Dim]
		for i, x := range v {
			dst[i] = float64(x)
		}
	case Vector32:
		if !f.is32 || len(v) != f.Dim {
			return false
		}
		copy(f.f32[row*f.Dim:(row+1)*f.Dim], v)
	default:
		return false
	}
	return true
}

// Append mirrors one object as the next row, reporting false — and
// leaving the mirror as it was — when Set would.
func (f *FlatVecs) Append(o Object) bool {
	row := f.Rows()
	f.Resize(row + 1)
	if !f.Set(row, o) {
		f.Resize(row)
		return false
	}
	return true
}

// SwapDelete moves the last row into row and truncates, mirroring the
// swap-with-last deletion of the pivot tables.
func (f *FlatVecs) SwapDelete(row int) {
	last := f.Rows() - 1
	if f.is32 {
		copy(f.f32[row*f.Dim:(row+1)*f.Dim], f.f32[last*f.Dim:(last+1)*f.Dim])
		f.f32 = f.f32[:last*f.Dim]
		return
	}
	copy(f.f64[row*f.Dim:(row+1)*f.Dim], f.f64[last*f.Dim:(last+1)*f.Dim])
	f.f64 = f.f64[:last*f.Dim]
}

// QueryCoords widens the query object into the scratch coordinate
// buffers and reports whether the flat path can serve it. A query whose
// type or dimension does not match the mirror returns ok=false and the
// caller falls back to the Object path (where the metric itself decides
// whether the pairing is legal).
func (f *FlatVecs) QueryCoords(q Object, sc *Scratch) (q64 []float64, q32 []float32, ok bool) {
	switch v := q.(type) {
	case Vector:
		if f.is32 || len(v) != f.Dim {
			return nil, nil, false
		}
		sc.Q64 = growF64(sc.Q64, f.Dim)
		copy(sc.Q64, v)
		return sc.Q64, nil, true
	case IntVector:
		if f.is32 || len(v) != f.Dim {
			return nil, nil, false
		}
		sc.Q64 = growF64(sc.Q64, f.Dim)
		for i, x := range v {
			sc.Q64[i] = float64(x)
		}
		return sc.Q64, nil, true
	case Vector32:
		if !f.is32 || len(v) != f.Dim {
			return nil, nil, false
		}
		if cap(sc.Q32) < f.Dim {
			sc.Q32 = make([]float32, f.Dim)
		} else {
			sc.Q32 = sc.Q32[:f.Dim]
		}
		copy(sc.Q32, v)
		return nil, sc.Q32, true
	}
	return nil, nil, false
}

// Pre computes the pre-distance of the widened query against one mirror
// row through the resolved kernel (no Object indirection, no interface
// dispatch). Exactly one of q64/q32 is non-nil, matching the mirror
// width.
//
//metriclint:noalloc
func (f *FlatVecs) Pre(k *PreKernel, q64 []float64, q32 []float32, row int) float64 {
	if f.is32 {
		return k.Pre32(q32, f.f32[row*f.Dim:(row+1)*f.Dim])
	}
	return k.Pre64(q64, f.f64[row*f.Dim:(row+1)*f.Dim])
}

// MemBytes reports the resident size of the mirror.
func (f *FlatVecs) MemBytes() int64 {
	return int64(len(f.f64))*8 + int64(len(f.f32))*4
}
