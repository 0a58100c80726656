package core

import (
	"math"
	"slices"
	"sync"
	"unsafe"
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
	// BlockIDs, BlockCols and BlockRefs hold one page of a paged pivot
	// table decoded for the block loop: its live rows' ids, distance
	// columns and (per-row pivots) pivot-reference columns.
	BlockIDs  []int32
	BlockCols [][]float64
	BlockRefs [][]int32

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

// GrowChunk sizes the verification-chunk buffers (IDs, Objs, Out)
// to hold n candidates.
func (s *Scratch) GrowChunk(n int) {
	if cap(s.IDs) < n {
		s.IDs = make([]int32, n)
	} else {
		s.IDs = s.IDs[:n]
	}
	if cap(s.Objs) < n {
		s.Objs = make([]Object, n)
	} else {
		s.Objs = s.Objs[:n]
	}
	s.Out = growF64(s.Out, n)
}

// GrowBlock sizes the block columns to at least n rows of l distance
// and l pivot-reference columns.
func (s *Scratch) GrowBlock(l, n int) {
	if len(s.BlockCols) != l || len(s.BlockIDs) < n {
		s.BlockIDs, s.BlockCols, s.BlockRefs = make([]int32, n), make([][]float64, l), make([][]int32, l)
		for c := range s.BlockCols {
			s.BlockCols[c], s.BlockRefs[c] = make([]float64, n), make([]int32, n)
		}
	}
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
//
// A narrowed mirror holds Vector rows under a metric with a widening
// kernel (PreKernel.Narrow) as float32: half the bytes of a float64 copy
// of rows the dataset already holds. Each row keeps a bound on what the
// rounding moved it by, so Rejects proves a row's exact pre-distance
// above a bound from the float32 row alone; a row it cannot reject is
// verified on its object's float64 coordinates.
type FlatVecs struct {
	// Dim is the common coordinate count of every mirrored row.
	Dim  int
	mode mirrorMode
	f64  []float64 // mode64 rows
	f32  []float32 // mode32 and modeNarrow rows
	// errs[row] is a modeNarrow row's error bound, rowErr of the
	// coordinates it was narrowed from.
	errs []float64
}

// mirrorMode is what a FlatVecs row holds.
type mirrorMode uint8

const (
	mode64     mirrorMode = iota // float64 coordinates of Vector or IntVector objects
	mode32                       // float32 coordinates of Vector32 objects
	modeNarrow                   // float32 rounding of Vector objects, with an error bound
)

// NewFlatVecs builds an empty mirror shaped like the sample object, or
// nil when the sample is not a vector type the flat kernels understand
// (the caller then stays on the Object verification path). A Vector
// sample under a kernel set with a widening kernel builds a narrowed
// mirror.
func NewFlatVecs(sample Object, k *PreKernel) *FlatVecs {
	switch v := sample.(type) {
	case Vector:
		if len(v) == 0 {
			return nil
		}
		if k.Narrow != nil {
			return &FlatVecs{Dim: len(v), mode: modeNarrow}
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
		return &FlatVecs{Dim: len(v), mode: mode32}
	}
	return nil
}

// Rows returns the number of mirrored rows.
func (f *FlatVecs) Rows() int {
	if f.mode != mode64 {
		return len(f.f32) / f.Dim
	}
	return len(f.f64) / f.Dim
}

// Resize makes the mirror hold rows rows, keeping the first ones; rows
// it adds hold no object until Set.
func (f *FlatVecs) Resize(rows int) {
	switch f.mode {
	case mode64:
		f.f64 = resize(f.f64, rows*f.Dim)
	case modeNarrow:
		f.errs = resize(f.errs, rows)
		fallthrough
	case mode32:
		f.f32 = resize(f.f32, rows*f.Dim)
	}
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
		if f.mode == mode32 || len(v) != f.Dim {
			return false
		}
		if f.mode == modeNarrow {
			dst := f.f32[row*f.Dim : (row+1)*f.Dim]
			for i, x := range v {
				dst[i] = float32(x)
			}
			f.errs[row] = rowErr(v)
			break
		}
		copy(f.f64[row*f.Dim:(row+1)*f.Dim], v)
	case IntVector:
		if f.mode != mode64 || len(v) != f.Dim {
			return false
		}
		dst := f.f64[row*f.Dim : (row+1)*f.Dim]
		for i, x := range v {
			dst[i] = float64(x)
		}
	case Vector32:
		if f.mode != mode32 || len(v) != f.Dim {
			return false
		}
		copy(f.f32[row*f.Dim:(row+1)*f.Dim], v)
	default:
		return false
	}
	return true
}

// rowErr is the error bound of v rounded to float32: the sum of each
// coordinate's rounding error, each exact, or +Inf where that sum is not
// finite — a NaN or infinite coordinate (Inf − Inf is NaN), or one past
// what float32 holds.
func rowErr(v []float64) float64 {
	var e float64
	for _, x := range v {
		e += math.Abs(x - float64(float32(x)))
	}
	if !(e <= math.MaxFloat64) {
		return math.Inf(1)
	}
	return e
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
	switch f.mode {
	case mode64:
		copy(f.f64[row*f.Dim:(row+1)*f.Dim], f.f64[last*f.Dim:(last+1)*f.Dim])
		f.f64 = f.f64[:last*f.Dim]
	case modeNarrow:
		f.errs[row] = f.errs[last]
		f.errs = f.errs[:last]
		fallthrough
	case mode32:
		copy(f.f32[row*f.Dim:(row+1)*f.Dim], f.f32[last*f.Dim:(last+1)*f.Dim])
		f.f32 = f.f32[:last*f.Dim]
	}
}

// QueryCoords widens the query object into the scratch coordinate
// buffers and reports whether the flat path can serve it. A query whose
// type or dimension does not match the mirror returns ok=false and the
// caller falls back to the Object path (where the metric itself decides
// whether the pairing is legal).
func (f *FlatVecs) QueryCoords(q Object, sc *Scratch) (q64 []float64, q32 []float32, ok bool) {
	switch v := q.(type) {
	case Vector:
		if f.mode == mode32 || len(v) != f.Dim {
			return nil, nil, false
		}
		sc.Q64 = growF64(sc.Q64, f.Dim)
		copy(sc.Q64, v)
		return sc.Q64, nil, true
	case IntVector:
		if f.mode == mode32 || len(v) != f.Dim {
			return nil, nil, false
		}
		sc.Q64 = growF64(sc.Q64, f.Dim)
		for i, x := range v {
			sc.Q64[i] = float64(x)
		}
		return sc.Q64, nil, true
	case Vector32:
		if f.mode != mode32 || len(v) != f.Dim {
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
// dispatch), stopping early once it exceeds stop (see PreKernel).
// Exactly one of q64/q32 is non-nil, matching the mirror width. A
// narrowed mirror has no exact rows to compute it on: see Rejects.
//
//metriclint:noalloc
func (f *FlatVecs) Pre(k *PreKernel, q64 []float64, q32 []float32, row int, stop float64) float64 {
	if f.mode == mode32 {
		return k.Pre32(q32, f.f32[row*f.Dim:(row+1)*f.Dim], stop)
	}
	return k.Pre64(q64, f.f64[row*f.Dim:(row+1)*f.Dim], stop)
}

// Narrowed reports whether the mirror is narrowed: its rows are verified
// by Rejects, then on their objects.
//
//metriclint:noalloc
func (f *FlatVecs) Narrowed() bool { return f.mode == modeNarrow }

// Filters reports whether Rejects may be asked about the widened query
// q64: every coordinate of q64 is finite. A NaN or infinite query
// coordinate can make a row's exact pre-distance NaN, which no bound
// rejects, while the narrowed partial passes a stop before it reaches
// that coordinate.
func (f *FlatVecs) Filters(q64 []float64) bool {
	for _, x := range q64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Rejects reports whether the exact pre-distance of q64 against the
// float64 coordinates narrowed row was built from — k.Pre64 over the
// row's object — provably exceeds bound, reading only the float32 row of
// a narrowed mirror; q64 must pass Filters. The widening kernel's
// pre-distance N of the float32 row and the exact one D differ by at
// most the row's error bound E (each term |q−y| is within |x−y| of
// |q−x|), so the kernel runs
// with the stop e + |e|·rel, e = bound + E: rel = (Dim+1)·2⁻⁵⁰ covers
// the rounding of N, of D, of E and of e, so a row whose computed D is
// not above bound never has a partial N above the stop. A row holding a
// NaN or an infinity has E = +Inf and is never rejected; neither is any
// row against a NaN or +Inf bound (a kNN scan's until its heap fills),
// and for those the row is not read.
//
//metriclint:noalloc
func (f *FlatVecs) Rejects(k *PreKernel, q64 []float64, row int, bound float64) bool {
	e := bound + f.errs[row]
	if !(e < math.Inf(1)) {
		return false
	}
	stop := e + math.Abs(e)*(float64(f.Dim+1)*0x1p-50)
	return k.Narrow(q64, f.f32[row*f.Dim:(row+1)*f.Dim], stop) > stop
}

// cacheLine is the byte width of a CPU cache line.
const cacheLine = 64

// Prefetch asks the CPU to start loading row's coordinates (PREFETCHT0
// per cache line), so a Pre on the row soon after finds them in cache.
// A row within one cache line skips it: its one miss overlaps little
// with the work before it, while the call is paid per candidate. Off
// amd64 it does nothing.
//
//metriclint:noalloc
func (f *FlatVecs) Prefetch(row int) {
	if f.rowBytes() > cacheLine { // inlined: a narrow row costs no call
		f.prefetch(row)
	}
}

//metriclint:noalloc
func (f *FlatVecs) prefetch(row int) {
	if f.mode != mode64 {
		prefetchLines(unsafe.Pointer(&f.f32[row*f.Dim]), uintptr(f.rowBytes()))
		return
	}
	prefetchLines(unsafe.Pointer(&f.f64[row*f.Dim]), uintptr(f.rowBytes()))
}

// rowBytes is the byte width of one mirror row.
//
//metriclint:noalloc
func (f *FlatVecs) rowBytes() int {
	if f.mode != mode64 {
		return f.Dim * 4
	}
	return f.Dim * 8
}

// Holds reports whether row holds, bit for bit, the coordinates
// QueryCoords widened from an object — what Set mirrors of it. Unlike a
// self-distance, which is NaN for a row with a NaN coordinate, it holds
// for every row Set mirrored. Exactly one of q64/q32 is non-nil,
// matching the mirror width. A narrowed row must hold float32 of each of
// q64's coordinates, and its error bound must be theirs.
func (f *FlatVecs) Holds(row int, q64 []float64, q32 []float32) bool {
	if f.mode == modeNarrow {
		for i, y := range f.f32[row*f.Dim : (row+1)*f.Dim] {
			if math.Float32bits(y) != math.Float32bits(float32(q64[i])) {
				return false
			}
		}
		return f.errs[row] == rowErr(q64)
	}
	if f.mode == mode32 {
		for i, x := range f.f32[row*f.Dim : (row+1)*f.Dim] {
			if math.Float32bits(x) != math.Float32bits(q32[i]) {
				return false
			}
		}
		return true
	}
	for i, x := range f.f64[row*f.Dim : (row+1)*f.Dim] {
		if math.Float64bits(x) != math.Float64bits(q64[i]) {
			return false
		}
	}
	return true
}

// MemBytes reports the resident size of the mirror, a narrowed one's
// error bounds included.
func (f *FlatVecs) MemBytes() int64 {
	return int64(len(f.f64))*8 + int64(len(f.f32))*4 + int64(len(f.errs))*8
}
