//go:build !amd64

package core

import "unsafe"

// l1Kernel64 is l1Kernel over float64 rows; off amd64 it is the generic
// body itself.
//
//metriclint:noalloc
func l1Kernel64(x, y []float64, stop float64) float64 {
	return l1Kernel(x, y, stop)
}

// sad is the sum of absolute differences of two byte rows; off amd64 it
// is the Go body itself.
//
//metriclint:noalloc
func sad(x, y []uint8) uint64 {
	return sadGo(x, y)
}

// keepMask is one column's Lemma 1 bitmap over at most 64 rows; off
// amd64 it is the Go body itself.
//
//metriclint:noalloc
func keepMask(col []float64, hi, lo float64) uint64 {
	return keepMaskGo(col, hi, lo)
}

// zoneGaps raises lb to one column's zone gaps; off amd64 it is the Go
// body itself.
//
//metriclint:noalloc
func zoneGaps(lb, lo, hi []float64, q float64) {
	zoneGapsGo(lb, lo, hi, q)
}

// prefetchLines does nothing off amd64.
func prefetchLines(unsafe.Pointer, uintptr) {}
