package core

import (
	"fmt"
	"math"
)

// This file is the batched distance core: 4-wide unrolled kernels over
// fixed-length windows of flat coordinate slices (so no element access
// is bounds-checked; make lint holds them to that), which can stop
// reading a row once its partial distance passes a threshold, the
// optional BatchMetric capability the built-in vector metrics implement,
// and the PreKernel bundle the pivot tables use to verify candidates
// without interface dispatch. The scalar Metric.Distance implementations
// delegate to the same kernels, so batched and scalar answers agree bit
// for bit by construction (see docs/KERNELS.md for the contract).

// BatchMetric is the optional batching capability of a Metric. A metric
// that implements it computes one query against many objects per call,
// letting indexes amortize interface dispatch, dimension validation, and
// compdists accounting across a whole batch. Results must be bit-for-bit
// identical to calling Distance pairwise — callers (and the metamorphic
// equivalence harness) rely on that.
//
// Scalar Distance remains the universal fallback: user-defined metrics
// and the Word/edit metric do not implement BatchMetric, and every caller
// must keep working without it.
type BatchMetric interface {
	Metric
	// DistanceMany sets out[i] = Distance(q, objs[i]) for every i.
	// len(out) must be at least len(objs).
	DistanceMany(q Object, objs []Object, out []float64)
	// DistanceFlat sets out[i] = d(q, flat[i*dim:(i+1)*dim]) for the
	// len(flat)/dim row-major coordinate rows in flat. Dimensions are
	// validated once per call, not per pair.
	DistanceFlat(q []float64, flat []float64, dim int, out []float64)
}

// checkFlat validates one DistanceFlat call up front (the per-batch
// replacement for the per-pair checkDim) and returns the row count.
func checkFlat(name string, q, flat []float64, dim int, out []float64) int {
	if dim <= 0 || len(q) != dim {
		checkDim(name, len(q), dim)
		panic(fmt.Sprintf("core: %s: DistanceFlat with non-positive dim %d", name, dim))
	}
	if len(flat)%dim != 0 {
		panic(fmt.Sprintf("core: %s: DistanceFlat block of %d floats is not a multiple of dim %d", name, len(flat), dim))
	}
	n := len(flat) / dim
	if len(out) < n {
		panic(fmt.Sprintf("core: %s: DistanceFlat out slice holds %d of %d rows", name, len(out), n))
	}
	return n
}

// stopStride is how many coordinates a kernel accumulates between two
// looks at its stop argument: a multiple of the 4-wide groups, long
// enough that the look costs little next to the arithmetic.
const stopStride = 32

// float is the coordinate type of the flat kernels: each is one source
// instantiated per width, float32 coordinates widening to float64 before
// the subtraction. The accumulation is float64 either way, so Vector32
// halves the memory traffic of a scan while keeping the accumulation
// error identical to the float64 pipeline over the widened values — the
// pruning-safety property docs/KERNELS.md spells out.
type float interface{ float32 | float64 }

// l1Kernel is the shared Manhattan kernel: 4 independent accumulators so
// the compiler can keep the adds in flight, over fixed-length windows of
// the rows so no element access is bounds-checked.
//
// Every stopStride coordinates it merges the accumulators as the final
// sum does and returns that partial once it exceeds stop. Every term is
// non-negative (or NaN) and rounding is monotone, so the full sum would
// exceed stop too, or be NaN: a caller that rejects pre-distances above
// stop, and NaN, rejects the same candidates as one that read the whole
// row. A result not above stop is the full sum, bit for bit; stop = +Inf
// never stops.
//
// Float64 rows reach it through l1Kernel64, which on amd64 runs the
// SSE2 body of kernels_amd64.s instead: the same sums, bit for bit.
//
//metriclint:noalloc
func l1Kernel[T float](x, y []T, stop float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	for len(x) >= stopStride {
		xw, yw := x[:stopStride:stopStride], y[:stopStride:stopStride]
		for i := 0; i < stopStride; i += 4 {
			s0 += math.Abs(float64(xw[i]) - float64(yw[i]))
			s1 += math.Abs(float64(xw[i+1]) - float64(yw[i+1]))
			s2 += math.Abs(float64(xw[i+2]) - float64(yw[i+2]))
			s3 += math.Abs(float64(xw[i+3]) - float64(yw[i+3]))
		}
		if p := (s0 + s1) + (s2 + s3); p > stop {
			return p
		}
		x, y = x[stopStride:], y[stopStride:]
	}
	for len(x) >= 4 {
		xw, yw := x[:4:4], y[:4:4]
		s0 += math.Abs(float64(xw[0]) - float64(yw[0]))
		s1 += math.Abs(float64(xw[1]) - float64(yw[1]))
		s2 += math.Abs(float64(xw[2]) - float64(yw[2]))
		s3 += math.Abs(float64(xw[3]) - float64(yw[3]))
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		s0 += math.Abs(float64(x[i]) - float64(y[i]))
	}
	return (s0 + s1) + (s2 + s3)
}

// l2SqKernel accumulates the squared Euclidean distance, deferring the
// sqrt to the caller (Finish) so pruning comparisons can stay in squared
// space. Its stop contract is l1Kernel's: squares are non-negative.
//
//metriclint:noalloc
func l2SqKernel[T float](x, y []T, stop float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	for len(x) >= stopStride {
		xw, yw := x[:stopStride:stopStride], y[:stopStride:stopStride]
		for i := 0; i < stopStride; i += 4 {
			d0 := float64(xw[i]) - float64(yw[i])
			d1 := float64(xw[i+1]) - float64(yw[i+1])
			d2 := float64(xw[i+2]) - float64(yw[i+2])
			d3 := float64(xw[i+3]) - float64(yw[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if p := (s0 + s1) + (s2 + s3); p > stop {
			return p
		}
		x, y = x[stopStride:], y[stopStride:]
	}
	for len(x) >= 4 {
		xw, yw := x[:4:4], y[:4:4]
		d0 := float64(xw[0]) - float64(yw[0])
		d1 := float64(xw[1]) - float64(yw[1])
		d2 := float64(xw[2]) - float64(yw[2])
		d3 := float64(xw[3]) - float64(yw[3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		d := float64(x[i]) - float64(y[i])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// linfKernel is the Chebyshev kernel. max is insensitive to lane order,
// and NaN lanes are dropped by both the lane and the merge comparisons,
// matching the scalar semantics exactly. Its partial is the merged lane
// maximum, which only grows, so l1Kernel's stop contract holds.
//
//metriclint:noalloc
func linfKernel[T float](x, y []T, stop float64) float64 {
	y = y[:len(x)]
	var m0, m1, m2, m3 float64
	for len(x) >= stopStride {
		xw, yw := x[:stopStride:stopStride], y[:stopStride:stopStride]
		for i := 0; i < stopStride; i += 4 {
			if d := math.Abs(float64(xw[i]) - float64(yw[i])); d > m0 {
				m0 = d
			}
			if d := math.Abs(float64(xw[i+1]) - float64(yw[i+1])); d > m1 {
				m1 = d
			}
			if d := math.Abs(float64(xw[i+2]) - float64(yw[i+2])); d > m2 {
				m2 = d
			}
			if d := math.Abs(float64(xw[i+3]) - float64(yw[i+3])); d > m3 {
				m3 = d
			}
		}
		if p := laneMax(m0, m1, m2, m3); p > stop {
			return p
		}
		x, y = x[stopStride:], y[stopStride:]
	}
	for len(x) >= 4 {
		xw, yw := x[:4:4], y[:4:4]
		if d := math.Abs(float64(xw[0]) - float64(yw[0])); d > m0 {
			m0 = d
		}
		if d := math.Abs(float64(xw[1]) - float64(yw[1])); d > m1 {
			m1 = d
		}
		if d := math.Abs(float64(xw[2]) - float64(yw[2])); d > m2 {
			m2 = d
		}
		if d := math.Abs(float64(xw[3]) - float64(yw[3])); d > m3 {
			m3 = d
		}
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		if d := math.Abs(float64(x[i]) - float64(y[i])); d > m0 {
			m0 = d
		}
	}
	return laneMax(m0, m1, m2, m3)
}

// laneMax merges the four Chebyshev lanes, in lane order.
//
//metriclint:noalloc
func laneMax(m0, m1, m2, m3 float64) float64 {
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return m0
}

// intLinfKernel is the Chebyshev kernel over int32 coordinates. The
// int32 maximum converts to float64 exactly, so it agrees bit for bit
// with linfKernel over the widened coordinates.
//
//metriclint:noalloc
func intLinfKernel(x, y []int32) float64 {
	y = y[:len(x)]
	var m0, m1, m2, m3 int32
	for len(x) >= 4 {
		xw, yw := x[:4:4], y[:4:4]
		if d := absInt32(xw[0] - yw[0]); d > m0 {
			m0 = d
		}
		if d := absInt32(xw[1] - yw[1]); d > m1 {
			m1 = d
		}
		if d := absInt32(xw[2] - yw[2]); d > m2 {
			m2 = d
		}
		if d := absInt32(xw[3] - yw[3]); d > m3 {
			m3 = d
		}
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		if d := absInt32(x[i] - y[i]); d > m0 {
			m0 = d
		}
	}
	return float64(max(m0, m1, m2, m3))
}

//metriclint:noalloc
func absInt32(d int32) int32 {
	if d < 0 {
		return -d
	}
	return d
}

// sadGo is the sum of absolute differences of two byte rows, the grid
// distance of a coded mirror's bounds (FlatVecs.Bounds): exact in
// integers, 4 lanes over fixed-length windows so no element access is
// bounds-checked. On amd64 sad runs the PSADBW body of kernels_amd64.s
// over the rows' 16-byte groups and this body over the rest.
//
//metriclint:noalloc
func sadGo(x, y []uint8) uint64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 uint64
	for len(x) >= 4 {
		xw, yw := x[:4:4], y[:4:4]
		s0 += absDiff8(xw[0], yw[0])
		s1 += absDiff8(xw[1], yw[1])
		s2 += absDiff8(xw[2], yw[2])
		s3 += absDiff8(xw[3], yw[3])
		x, y = x[4:], y[4:]
	}
	y = y[:len(x)]
	for i := range x {
		s0 += absDiff8(x[i], y[i])
	}
	return s0 + s1 + s2 + s3
}

//metriclint:noalloc
func absDiff8(a, b uint8) uint64 {
	if a < b {
		return uint64(b - a)
	}
	return uint64(a - b)
}

// DistanceMany implements BatchMetric for L1: pair by pair through
// Distance, so float64 rows run l1Kernel64 like every other float64 L1
// call.
func (m L1) DistanceMany(q Object, objs []Object, out []float64) {
	out = out[:len(objs)]
	for i, o := range objs {
		out[i] = m.Distance(q, o)
	}
}

// DistanceFlat implements BatchMetric for L1.
func (L1) DistanceFlat(q []float64, flat []float64, dim int, out []float64) {
	out = out[:checkFlat("L1", q, flat, dim, out)]
	for i := range out {
		out[i] = l1Kernel64(q, flat[i*dim:(i+1)*dim], math.Inf(1))
	}
}

// DistanceMany implements BatchMetric for L2.
func (m L2) DistanceMany(q Object, objs []Object, out []float64) {
	distanceManyVec(m, q, objs, out)
}

// DistanceFlat implements BatchMetric for L2. The sqrt is applied once
// per pair, after the accumulation loop.
func (L2) DistanceFlat(q []float64, flat []float64, dim int, out []float64) {
	out = out[:checkFlat("L2", q, flat, dim, out)]
	for i := range out {
		out[i] = math.Sqrt(l2SqKernel(q, flat[i*dim:(i+1)*dim], math.Inf(1)))
	}
}

// DistanceMany implements BatchMetric for LInf.
func (m LInf) DistanceMany(q Object, objs []Object, out []float64) {
	distanceManyVec(m, q, objs, out)
}

// DistanceFlat implements BatchMetric for LInf.
func (LInf) DistanceFlat(q []float64, flat []float64, dim int, out []float64) {
	out = out[:checkFlat("Linf", q, flat, dim, out)]
	for i := range out {
		out[i] = linfKernel(q, flat[i*dim:(i+1)*dim], math.Inf(1))
	}
}

// DistanceMany implements BatchMetric for IntLInf over IntVector objects.
func (IntLInf) DistanceMany(q Object, objs []Object, out []float64) {
	x := q.(IntVector)
	out = out[:len(objs)]
	for i, o := range objs {
		y := o.(IntVector)
		checkDim("IntLinf", len(x), len(y))
		out[i] = intLinfKernel(x, y)
	}
}

// DistanceFlat implements BatchMetric for IntLInf over widened float64
// coordinates (int32 values are exact in float64, so the result is
// bit-for-bit the integer Chebyshev distance).
func (IntLInf) DistanceFlat(q []float64, flat []float64, dim int, out []float64) {
	out = out[:checkFlat("IntLinf", q, flat, dim, out)]
	for i := range out {
		out[i] = linfKernel(q, flat[i*dim:(i+1)*dim], math.Inf(1))
	}
}

// distanceManyVec dispatches one query against many vector objects for a
// built-in Lp-family metric: the query's concrete type (Vector or
// Vector32) is resolved once per batch, and each object pays one type
// assertion plus one length compare before entering the shared kernel.
func distanceManyVec(m Metric, q Object, objs []Object, out []float64) {
	name := m.Name()
	out = out[:len(objs)]
	if x, ok := q.(Vector32); ok {
		for i, o := range objs {
			y := o.(Vector32)
			checkDim(name, len(x), len(y))
			out[i] = vecKernel(m, x, y)
		}
		return
	}
	x := q.(Vector)
	for i, o := range objs {
		y := o.(Vector)
		checkDim(name, len(x), len(y))
		out[i] = vecKernel(m, x, y)
	}
}

//metriclint:noalloc
func vecKernel[T float](m Metric, x, y []T) float64 {
	switch m.(type) {
	case L2:
		return math.Sqrt(l2SqKernel(x, y, math.Inf(1)))
	case LInf:
		return linfKernel(x, y, math.Inf(1))
	}
	panic("core: vector kernel dispatch on unsupported metric")
}

// PreKernel is the resolved flat-coordinate kernel set of a vector
// metric, the capability the pivot tables detect once at build time and
// then call without any interface dispatch on the per-candidate hot
// path. Pre computes a monotone "pre-distance" (the L1 sum, the squared
// L2 sum, the Chebyshev max), stopping early once it provably exceeds
// its stop argument (see l1Kernel); Finish maps it to the metric
// distance (sqrt for L2, identity otherwise); Bound maps a radius r into
// pre-distance space, conservatively: no candidate whose true distance
// is within r has a pre-distance above Bound(r). A verifier passes
// Bound(r) as the stop and rejects a pre-distance above it — one
// threshold decides both where the kernel stops and which candidates are
// kept — and compares the Finish of the rest with r exactly.
type PreKernel struct {
	Pre64  func(q, o []float64, stop float64) float64
	Pre32  func(q, o []float32, stop float64) float64
	Bound  func(r float64) float64
	Finish func(pre float64) float64
}

// boundIdentity is the Bound of the metrics whose pre-distance is the
// distance. A negative radius is below every pre-distance already.
//
//metriclint:noalloc
func boundIdentity(r float64) float64 { return r }

// boundSq is L2's Bound: r² with a one-sided relative margin for the
// rounding of r*r and of the sqrt, so it may keep a candidate a hair
// outside r (the exact compare of its Finish then rejects it) but never
// rejects a true d <= r; and -Inf for a negative radius, which no
// distance is within.
//
//metriclint:noalloc
func boundSq(r float64) float64 {
	if r < 0 {
		return math.Inf(-1)
	}
	rr := r * r
	return rr + rr*1e-12
}

//metriclint:noalloc
func finishIdentity(pre float64) float64 { return pre }

//metriclint:noalloc
func finishSqrt(pre float64) float64 { return math.Sqrt(pre) }

// PreKernelFor resolves the flat kernel set of a metric, reporting false
// for metrics without one (user metrics, Lp with fractional order,
// Edit). IntLInf resolves to the float64 Chebyshev kernel: its int32
// coordinates widen to float64 exactly.
func PreKernelFor(m Metric) (PreKernel, bool) {
	switch m.(type) {
	case L1:
		return PreKernel{Pre64: l1Kernel64, Pre32: l1Kernel[float32], Bound: boundIdentity, Finish: finishIdentity}, true
	case L2:
		return PreKernel{Pre64: l2SqKernel[float64], Pre32: l2SqKernel[float32], Bound: boundSq, Finish: finishSqrt}, true
	case LInf, IntLInf:
		return PreKernel{Pre64: linfKernel[float64], Pre32: linfKernel[float32], Bound: boundIdentity, Finish: finishIdentity}, true
	}
	return PreKernel{}, false
}
