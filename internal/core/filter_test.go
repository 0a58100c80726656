package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sweepValue draws a column entry or query distance: mostly a finite
// distance, sometimes NaN or ±Inf.
func sweepValue(rng *rand.Rand) float64 {
	switch rng.Intn(20) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	default:
		return rng.Float64() * 1000
	}
}

// TestSurviveColumnsMatchesRowTest checks both column sweeps against
// Lemma 1 applied a row at a time: SurviveColumns and
// SurviveColumnsIndexed must keep exactly the rows of [base, rows) that
// PruneObject keeps, in increasing order, and PruneRowAt and
// PruneRowIndexedAt must agree with PruneObject on every row. Columns
// hold NaN and ±Inf, radii are negative, zero, NaN and +Inf, blocks run
// to ~1 100 rows over up to 8 columns, and base and rows take every
// alignment mod 8, the span rows-base ending on both sides of multiples
// of 64: the sweep's 8-row groups, its 64-row word ends and its Go tail
// all run.
func TestSurviveColumnsMatchesRowTest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	radii := []float64{-5, 0, 1e-9, 3, 40, 250, 1500, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 60; trial++ {
		n := 16 + rng.Intn(1100)
		l := rng.Intn(9)
		pool := 1 + rng.Intn(6)
		cols := make([][]float64, l)
		refs := make([][]int32, l)
		for c := range cols {
			cols[c] = make([]float64, n)
			refs[c] = make([]int32, n)
			for row := range cols[c] {
				cols[c][row] = sweepValue(rng)
				refs[c][row] = int32(rng.Intn(pool))
			}
		}
		qd := make([]float64, max(l, pool))
		for i := range qd {
			qd[i] = sweepValue(rng)
		}
		sur := make([]int32, n)
		od := make([]float64, l)
		rqd := make([]float64, l)
		keep, keepIdx := make([]bool, n), make([]bool, n)
		var want, wantIdx []int32
		for ri, r := range radii {
			for row := range n {
				for c := range cols {
					od[c] = cols[c][row]
					rqd[c] = qd[refs[c][row]]
				}
				prune := PruneObject(qd[:l], od, r)
				if PruneRowAt(qd, cols, row, r) != prune {
					t.Fatalf("trial %d r=%v row %d: PruneRowAt disagrees with PruneObject (%v)", trial, r, row, prune)
				}
				pruneIdx := PruneObject(rqd, od, r)
				if PruneRowIndexedAt(qd, refs, cols, row, r) != pruneIdx {
					t.Fatalf("trial %d r=%v row %d: PruneRowIndexedAt disagrees with PruneObject (%v)", trial, r, row, pruneIdx)
				}
				keep[row], keepIdx[row] = !prune, !pruneIdx
			}
			b0 := rng.Intn(n - 15)
			// Every other radius ends the spans around a multiple of 64
			// rows past b0, where the range has one.
			e0 := b0 + 8 + rng.Intn(n-b0-15)
			if span := (e0 - b0) &^ 63; ri%2 == 0 && span > 0 {
				e0 = b0 + span - 3
			}
			for base := b0; base < b0+8; base++ {
				for rows := e0; rows < e0+8; rows++ {
					want, wantIdx = want[:0], wantIdx[:0]
					for row := base; row < rows; row++ {
						if keep[row] {
							want = append(want, int32(row))
						}
						if keepIdx[row] {
							wantIdx = append(wantIdx, int32(row))
						}
					}
					if got := SurviveColumns(sur, qd, cols, base, rows, r); !slices.Equal(got, want) {
						t.Fatalf("trial %d r=%v [%d,%d): SurviveColumns %v, row test %v", trial, r, base, rows, got, want)
					}
					if got := SurviveColumnsIndexed(sur, qd, refs, cols, base, rows, r); !slices.Equal(got, wantIdx) {
						t.Fatalf("trial %d r=%v [%d,%d): SurviveColumnsIndexed %v, row test %v", trial, r, base, rows, got, wantIdx)
					}
				}
			}
		}
	}
}

// FuzzSurviveColumns checks the pivot table's two column passes on
// raw-bit input: SurviveColumns against PruneObject row by row over the
// rows [base, rows) the fuzzer picks, and ZoneBounds against the largest
// ZoneGap over the columns, at least 0, zone by zone and bit for bit,
// the columns read as zone bounds (zone i of column c spans
// [cols[c][i], cols[c][i+1]], any order). The bytes fill the query
// distances qd first, then the columns, row-major; a seeded generator
// fills whatever they do not reach.
func FuzzSurviveColumns(f *testing.F) {
	f.Add([]byte{}, uint8(3), uint16(130), uint16(0), uint16(130), int64(1), math.Float64bits(40))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 1, 0, 0, 0, 0, 0, 0xF0, 0xFF}, uint8(2), uint16(70), uint16(5), uint16(64), int64(2), math.Float64bits(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0}, uint8(8), uint16(1100), uint16(7), uint16(1031), int64(3), math.Float64bits(math.NaN()))
	f.Fuzz(func(t *testing.T, raw []byte, lsel uint8, nsel, bsel, ssel uint16, seed int64, rBits uint64) {
		l, n := int(lsel)%9, int(nsel)%1200+1
		rng := rand.New(rand.NewSource(seed))
		next := func() float64 {
			if len(raw) >= 8 {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
				return v
			}
			return sweepValue(rng)
		}
		qd := make([]float64, l)
		for c := range qd {
			qd[c] = next()
		}
		cols := make([][]float64, l)
		for c := range cols {
			cols[c] = make([]float64, n)
		}
		od := make([]float64, l)
		for row := range n {
			for c := range cols {
				cols[c][row] = next()
			}
		}
		r := math.Float64frombits(rBits)
		base := int(bsel) % n
		rows := base + int(ssel)%(n-base+1)
		sur := SurviveColumns(make([]int32, rows-base), qd, cols, base, rows, r)
		for row := base; row < rows; row++ {
			for c := range cols {
				od[c] = cols[c][row]
			}
			kept := len(sur) > 0 && sur[0] == int32(row)
			if kept {
				sur = sur[1:]
			}
			if kept == PruneObject(qd, od, r) {
				t.Fatalf("row %d of [%d,%d) at r=%v: SurviveColumns keeps it %v, PruneObject prunes it %v", row, base, rows, r, kept, !kept)
			}
		}
		if len(sur) != 0 {
			t.Fatalf("SurviveColumns returned rows outside [%d,%d) or out of order: %v", base, rows, sur)
		}
		if rows == n {
			rows-- // zone i reads row i+1
		}
		lo, hi := make([][]float64, l), make([][]float64, l)
		for c := range cols {
			lo[c], hi[c] = cols[c][:n-1], cols[c][1:]
		}
		lb := make([]float64, max(0, rows-base))
		ZoneBounds(lb, lo, hi, qd, base)
		for i, got := range lb {
			var want float64
			for c := range cols {
				if g := ZoneGap(qd[c], lo[c][base+i], hi[c][base+i]); g > want {
					want = g
				}
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("zone %d: ZoneBounds %x, largest ZoneGap %x", base+i, math.Float64bits(got), math.Float64bits(want))
			}
		}
	})
}
