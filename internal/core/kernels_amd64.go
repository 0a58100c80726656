package core

import "unsafe"

// l1Kernel64 is l1Kernel over float64 rows, run by the SSE2 body in
// kernels_amd64.s: bit for bit l1Kernel[float64], stop contract
// included, without math.Abs's round trip through a general register.
//
//metriclint:noalloc
func l1Kernel64(x, y []float64, stop float64) float64 {
	return l1SSE2(x, y[:len(x)], stop)
}

// l1SSE2 is l1Kernel64's body; len(y) must be len(x).
//
//go:noescape
func l1SSE2(x, y []float64, stop float64) float64

// l1Widen is l1Kernel over a float64 query and a float32 row — the
// narrowed mirror's filter — run by the SSE2 body in kernels_amd64.s
// (CVTPS2PD, then l1SSE2's arithmetic): bit for bit l1Kernel[float64,
// float32], stop contract included.
//
//metriclint:noalloc
func l1Widen(x []float64, y []float32, stop float64) float64 {
	return l1WidenSSE2(x, y[:len(x)], stop)
}

// l1WidenSSE2 is l1Widen's body; len(y) must be len(x).
//
//go:noescape
func l1WidenSSE2(x []float64, y []float32, stop float64) float64

// keepMask is one column's Lemma 1 bitmap over at most 64 rows, bit for
// bit keepMaskGo: the SSE2 body in kernels_amd64.s runs the rows in
// groups of 8, and the Go body the tail of fewer than 8.
//
//metriclint:noalloc
func keepMask(col []float64, hi, lo float64) uint64 {
	n := len(col) &^ 7
	keep := keepMaskGo(col[n:], hi, lo) << uint(n)
	if n > 0 {
		keep |= keepMaskSSE2(col[:n], hi, lo)
	}
	return keep
}

// keepMaskSSE2 is keepMask's body over a positive multiple of 8 rows,
// at most 64.
//
//go:noescape
func keepMaskSSE2(col []float64, hi, lo float64) uint64

// zoneGaps raises lb to one column's zone gaps, bit for bit zoneGapsGo,
// two zones at a time in the SSE2 body in kernels_amd64.s.
//
//metriclint:noalloc
func zoneGaps(lb, lo, hi []float64, q float64) {
	zoneGapsSSE2(lb, lo[:len(lb)], hi[:len(lb)], q)
}

// zoneGapsSSE2 is zoneGaps's body; lo and hi must be as long as lb.
//
//go:noescape
func zoneGapsSSE2(lb, lo, hi []float64, q float64)

// prefetchLines asks the CPU to load the n > 0 bytes at p into its
// caches, one PREFETCHT0 per 64-byte line.
//
//go:noescape
func prefetchLines(p unsafe.Pointer, n uintptr)
