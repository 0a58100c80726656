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

// sad is sadGo's sum, the PSADBW body in kernels_amd64.s running the
// rows' 16-byte groups and the Go body the tail of fewer than 16 bytes.
// A coded mirror's rows and query are padded to 16 bytes, so the tail is
// empty there and its call is skipped.
//
//metriclint:noalloc
func sad(x, y []uint8) uint64 {
	y = y[:len(x)]
	n := len(x) &^ 15
	var s uint64
	if n > 0 {
		s = sadSSE2(x[:n], y[:n])
	}
	if n < len(x) {
		s += sadGo(x[n:], y[n:])
	}
	return s
}

// sadSSE2 is sad's body over a positive multiple of 16 bytes; len(y)
// must be len(x).
//
//go:noescape
func sadSSE2(x, y []uint8) uint64

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
