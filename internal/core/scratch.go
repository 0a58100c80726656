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
	// Q64 and Q32 hold widened query coordinates for the flat kernels,
	// and Q8 a query's codes on a narrowed mirror's grid.
	Q64 []float64
	Q32 []float32
	Q8  []uint8
	// Done marks visited rows for elimination-style scans (AESA).
	Done []bool
	// BlockIDs, BlockCols and BlockRefs hold one page of a paged pivot
	// table decoded for the block loop: its live rows' ids, distance
	// columns and (per-row pivots) pivot-reference columns.
	BlockIDs  []int32
	BlockCols [][]float64
	BlockRefs [][]int32
	// Kept holds the rows of one block that a narrowed mirror's codes
	// kept for a kNN query, verified at the block's end in the order of
	// their lower bounds; Upper is the k-bounded heap of their upper
	// bounds, whose k-th is a radius before any row is verified.
	Kept  []CodeRow
	Upper KNNHeap

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
// A narrowed mirror holds Vector rows under L1 as 8-bit codes on one
// grid: a byte a coordinate of rows the dataset already holds. Each row
// keeps its exact coding error, so its codes bound the row's exact
// pre-distance from below and from above (Bounds, Above, Upper); a row
// those bounds cannot decide is verified on its object's float64
// coordinates.
type FlatVecs struct {
	// Dim is the common coordinate count of every mirrored row.
	Dim  int
	mode mirrorMode
	f64  []float64 // mode64 rows
	f32  []float32 // mode32 rows
	// A modeCode row is rowBytes codes: one per coordinate, then zeros
	// up to a multiple of 16. errs[row] is its coding error.
	codes []uint8
	errs  []float64
	grid  grid
	// rowBytes is the byte width of one row: Dim·8, Dim·4, or the codes'.
	rowBytes int
}

// mirrorMode is what a FlatVecs row holds.
type mirrorMode uint8

const (
	mode64   mirrorMode = iota // float64 coordinates of Vector or IntVector objects
	mode32                     // float32 coordinates of Vector32 objects
	modeCode                   // grid codes of Vector objects, with their coding error
)

// NewFlatVecs builds an empty mirror shaped like fill[0], or nil when
// fill is empty or fill[0] is not a vector type the flat kernels
// understand (the caller then stays on the Object verification path).
// fill is the objects the mirror is about to be filled with, or a sample
// of them. Vector objects under L1 build a narrowed mirror, whose grid is
// fitted to the finite coordinates of fill's Vector objects of the same
// width; other mirrors read only fill[0].
func NewFlatVecs(m Metric, fill []Object) *FlatVecs {
	if len(fill) == 0 {
		return nil
	}
	switch v := fill[0].(type) {
	case Vector:
		if len(v) == 0 {
			return nil
		}
		if _, l1 := m.(L1); !l1 {
			return &FlatVecs{Dim: len(v), rowBytes: len(v) * 8}
		}
		f := &FlatVecs{Dim: len(v), mode: modeCode, rowBytes: (len(v) + 15) &^ 15}
		f.grid.fit(fill, f.Dim)
		return f
	case IntVector:
		if len(v) == 0 {
			return nil
		}
		return &FlatVecs{Dim: len(v), rowBytes: len(v) * 8}
	case Vector32:
		if len(v) == 0 {
			return nil
		}
		return &FlatVecs{Dim: len(v), mode: mode32, rowBytes: len(v) * 4}
	}
	return nil
}

// grid is a narrowed mirror's code grid: code c stands for lo + c·step.
// step is a power of two no smaller than the least normal float64 and lo
// a multiple of it, both fitted so that |lo|/step + 255 < 2⁵³: every
// value the grid stands for is exact in float64.
type grid struct {
	lo, step, inv float64 // inv = 1/step, exact
}

// gridReach bounds the coordinates a grid is fitted to, so that neither
// lo nor the grid's last value overflows: a coordinate beyond it is
// clamped like any other outside the grid.
const gridReach = 0x1p1000

// fit fits the grid to the finite coordinates of the Vector objects of
// dim coordinates in fill, lo to hi: the least power of two step whose
// 256 values, from lo rounded to a multiple of step, reach hi within
// step/2 — so a coordinate in the range is off its code's value by at
// most step/2 — raised until the values are exact in float64 (the
// second term of the max). No finite coordinate fits the grid of the
// least step at 0.
func (g *grid) fit(fill []Object, dim int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range fill {
		if v, ok := o.(Vector); ok && len(v) == dim {
			for _, x := range v {
				if x < lo && x >= -math.MaxFloat64 {
					lo = x
				}
				if x > hi && x <= math.MaxFloat64 {
					hi = x
				}
			}
		}
	}
	lo, hi = max(lo, -gridReach), min(hi, gridReach)
	if !(lo <= hi) {
		lo, hi = 0, 0
	}
	// Halves keep hi − lo from overflowing: 255 steps span it.
	g.step = pow2AtLeast(max((hi/2-lo/2)/127.5, max(-lo, hi)*0x1p-51, 0x1p-1022))
	g.inv = 1 / g.step
	g.lo = math.Round(lo*g.inv) * g.step
}

// pow2AtLeast is the least power of two not below the positive normal x.
func pow2AtLeast(x float64) float64 {
	frac, exp := math.Frexp(x) // x = frac·2^exp, frac in [1/2, 1)
	if frac == 0.5 {
		return x
	}
	return math.Ldexp(1, exp)
}

// roundMagic rounds a float64 in [0, 2⁵¹] to the nearest integer, ties
// to even, as (t + roundMagic) − roundMagic.
const roundMagic = 0x1.8p52

// code is x's code on the grid, as a float64: the nearest of the grid's
// values, clamping past its ends; 0 for NaN.
func (g grid) code(x float64) float64 {
	t := (x - g.lo) * g.inv
	if t > 255 {
		t = 255
	}
	if !(t > 0) {
		t = 0
	}
	return (t + roundMagic) - roundMagic
}

// encode writes v's codes into dst, zeroing the padding past them, and
// returns the coding error: the sum of |x − the value of x's code| over
// v's coordinates — each term exact but for the one rounding of its
// subtraction — or +Inf where that sum is not finite (a NaN or infinite
// coordinate, or errors past math.MaxFloat64). It sums in two lanes, the
// even and the odd coordinates.
func (g grid) encode(dst []uint8, v []float64) float64 {
	var e0, e1 float64
	i := 0
	for ; i+1 < len(v); i += 2 {
		x0, x1 := v[i], v[i+1]
		c0, c1 := g.code(x0), g.code(x1)
		dst[i], dst[i+1] = uint8(c0), uint8(c1)
		e0 += math.Abs(x0 - (g.lo + c0*g.step))
		e1 += math.Abs(x1 - (g.lo + c1*g.step))
	}
	if i < len(v) {
		c := g.code(v[i])
		dst[i] = uint8(c)
		e0 += math.Abs(v[i] - (g.lo + c*g.step))
	}
	clear(dst[len(v):])
	if e := e0 + e1; e <= math.MaxFloat64 {
		return e
	}
	return math.Inf(1)
}

// Rows returns the number of mirrored rows.
func (f *FlatVecs) Rows() int {
	switch f.mode {
	case mode32:
		return len(f.f32) / f.Dim
	case modeCode:
		return len(f.errs)
	}
	return len(f.f64) / f.Dim
}

// Resize makes the mirror hold rows rows, keeping the first ones; rows
// it adds hold no object until Set.
func (f *FlatVecs) Resize(rows int) {
	switch f.mode {
	case mode64:
		f.f64 = resize(f.f64, rows*f.Dim)
	case mode32:
		f.f32 = resize(f.f32, rows*f.Dim)
	case modeCode:
		f.codes = resize(f.codes, rows*f.rowBytes)
		f.errs = resize(f.errs, rows)
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
		if f.mode == modeCode {
			f.errs[row] = f.grid.encode(f.codes[row*f.rowBytes:(row+1)*f.rowBytes], v)
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
	case mode32:
		copy(f.f32[row*f.Dim:(row+1)*f.Dim], f.f32[last*f.Dim:(last+1)*f.Dim])
		f.f32 = f.f32[:last*f.Dim]
	case modeCode:
		copy(f.codes[row*f.rowBytes:(row+1)*f.rowBytes], f.codes[last*f.rowBytes:(last+1)*f.rowBytes])
		f.codes = f.codes[:last*f.rowBytes]
		f.errs[row] = f.errs[last]
		f.errs = f.errs[:last]
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
// narrowed mirror has no exact rows to compute it on: see Bounds.
//
//metriclint:noalloc
func (f *FlatVecs) Pre(k *PreKernel, q64 []float64, q32 []float32, row int, stop float64) float64 {
	if f.mode == mode32 {
		return k.Pre32(q32, f.f32[row*f.Dim:(row+1)*f.Dim], stop)
	}
	return k.Pre64(q64, f.f64[row*f.Dim:(row+1)*f.Dim], stop)
}

// Narrowed reports whether the mirror is narrowed: its rows are bounded
// by their codes (Bounds), then verified on their objects.
//
//metriclint:noalloc
func (f *FlatVecs) Narrowed() bool { return f.mode == modeCode }

// Code codes the widened query q64 on a narrowed mirror's grid into the
// scratch's Q8, padded as a row is, and returns the codes and their
// coding error eq; ok is false — and Bounds must not be asked — when a
// coordinate of q64 is NaN or infinite, or eq is not finite. A NaN or
// infinite query coordinate can make a row's exact pre-distance NaN,
// which no bound rejects.
func (f *FlatVecs) Code(q64 []float64, sc *Scratch) (qc []uint8, eq float64, ok bool) {
	if cap(sc.Q8) < f.rowBytes {
		sc.Q8 = make([]uint8, f.rowBytes)
	}
	qc = sc.Q8[:f.rowBytes]
	eq = f.grid.encode(qc, q64)
	return qc, eq, eq < math.Inf(1)
}

// CodeRow is a row of a narrowed mirror with the two terms of its code
// bounds against one query (FlatVecs.Bounds): the row's computed
// pre-distance lies between SD − E and SD + E, up to the roundings Above
// and Upper cover.
type CodeRow struct {
	Row   int32
	SD, E float64
}

// Bounds reads row's codes against the query's — qc and eq from Code,
// which reported ok — and returns the two terms of the row's bounds:
// sd = step·SAD, exact, with step the grid's spacing and SAD the byte
// distance of the codes, and e = E + eq, the row's coding error plus the
// query's. By the triangle inequality per coordinate, the exact L1
// distance D between the query and the float64 coordinates the row was
// coded from satisfies sd − e ≤ D ≤ sd + e. A row holding a NaN or an
// infinity has E = +Inf: its codes are not read and sd is 0, so its
// lower bound is −Inf and its upper bound +Inf.
//
//metriclint:noalloc
func (f *FlatVecs) Bounds(qc []uint8, eq float64, row int) (sd, e float64) {
	e = f.errs[row] + eq
	if !(e < math.Inf(1)) {
		return 0, e
	}
	return f.grid.step * float64(sad(qc, f.codes[row*f.rowBytes:(row+1)*f.rowBytes])), e
}

// rel is the relative margin of Above and Upper, (Dim+1)·2⁻⁵⁰: it
// covers the roundings of the computed D — L1's Pre64 over the row's
// object — and of E, eq and the sums that use them.
//
//metriclint:noalloc
func (f *FlatVecs) rel() float64 { return float64(f.Dim+1) * 0x1p-50 }

// Above is the codes' lower test: it reports whether a row whose Bounds
// are sd and e has a computed pre-distance provably above bound, when
// sd exceeds b + |b|·rel with b = bound + e. A row whose computed D is
// not above bound is never rejected. Neither is a row with E = +Inf, nor
// any row against a NaN or +Inf bound (a kNN scan's until its radius is
// finite).
//
//metriclint:noalloc
func (f *FlatVecs) Above(sd, e, bound float64) bool {
	b := bound + e
	return b < math.Inf(1) && sd > b+math.Abs(b)*f.rel()
}

// Upper is the codes' upper bound on the computed pre-distance of a row
// whose Bounds are sd and e: u = sd + e raised to u + u·rel, so that it
// is never below the computed D. It is +Inf for a row with E = +Inf.
//
//metriclint:noalloc
func (f *FlatVecs) Upper(sd, e float64) float64 {
	u := sd + e
	return u + u*f.rel()
}

// cacheLine is the byte width of a CPU cache line.
const cacheLine = 64

// Prefetch asks the CPU to start loading row's coordinates (PREFETCHT0
// per cache line), so a Pre or Bounds on the row soon after finds them
// in cache. A row within one cache line skips it: its one miss overlaps
// little with the work before it, while the call is paid per candidate.
// Off amd64 it does nothing.
//
//metriclint:noalloc
func (f *FlatVecs) Prefetch(row int) {
	if f.rowBytes > cacheLine { // inlined: a narrow row costs no call
		f.prefetch(row)
	}
}

//metriclint:noalloc
func (f *FlatVecs) prefetch(row int) {
	switch f.mode {
	case mode32:
		prefetchLines(unsafe.Pointer(&f.f32[row*f.Dim]), uintptr(f.rowBytes))
	case modeCode:
		prefetchLines(unsafe.Pointer(&f.codes[row*f.rowBytes]), uintptr(f.rowBytes))
	default:
		prefetchLines(unsafe.Pointer(&f.f64[row*f.Dim]), uintptr(f.rowBytes))
	}
}

// PrefetchVector asks the CPU to start loading v's coordinates, as
// Prefetch does a mirror row's: the narrowed mirror's scan calls it on
// the object it verifies next. Off amd64 it does nothing.
//
//metriclint:noalloc
func PrefetchVector(v Vector) {
	if len(v) > 0 {
		prefetchLines(unsafe.Pointer(&v[0]), uintptr(len(v))*8)
	}
}

// Holds reports whether row holds, bit for bit, the coordinates
// QueryCoords widened from an object — what Set mirrors of it. Unlike a
// self-distance, which is NaN for a row with a NaN coordinate, it holds
// for every row Set mirrored. Exactly one of q64/q32 is non-nil,
// matching the mirror width. A narrowed row must hold the codes of
// q64's coordinates, zero padding, and their coding error.
func (f *FlatVecs) Holds(row int, q64 []float64, q32 []float32) bool {
	if f.mode == modeCode {
		codes := make([]uint8, f.rowBytes)
		e := f.grid.encode(codes, q64)
		return slices.Equal(codes, f.codes[row*f.rowBytes:(row+1)*f.rowBytes]) &&
			math.Float64bits(e) == math.Float64bits(f.errs[row])
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
// coding errors included.
func (f *FlatVecs) MemBytes() int64 {
	return int64(len(f.f64))*8 + int64(len(f.f32))*4 + int64(len(f.codes)) + int64(len(f.errs))*8
}
