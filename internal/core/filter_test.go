package core

import (
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
// hold NaN and ±Inf, radii are negative, zero, NaN and +Inf, and base
// and rows take every alignment mod 4, so the unrolled bodies and their
// tails both run.
func TestSurviveColumnsMatchesRowTest(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	radii := []float64{-5, 0, 1e-9, 3, 40, 250, 1500, math.NaN(), math.Inf(1)}
	for trial := 0; trial < 60; trial++ {
		n := 8 + rng.Intn(300)
		l := rng.Intn(5)
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
		var want, wantIdx []int32
		for _, r := range radii {
			b0 := rng.Intn(n - 7)
			e0 := b0 + 3 + rng.Intn(n-b0-6)
			for base := b0; base < b0+4; base++ {
				for rows := e0; rows < e0+4; rows++ {
					want, wantIdx = want[:0], wantIdx[:0]
					for row := base; row < rows; row++ {
						for c := range cols {
							od[c] = cols[c][row]
							rqd[c] = qd[refs[c][row]]
						}
						prune := PruneObject(qd[:l], od, r)
						if PruneRowAt(qd, cols, row, r) != prune {
							t.Fatalf("trial %d r=%v row %d: PruneRowAt disagrees with PruneObject (%v)", trial, r, row, prune)
						}
						if !prune {
							want = append(want, int32(row))
						}
						pruneIdx := PruneObject(rqd, od, r)
						if PruneRowIndexedAt(qd, refs, cols, row, r) != pruneIdx {
							t.Fatalf("trial %d r=%v row %d: PruneRowIndexedAt disagrees with PruneObject (%v)", trial, r, row, pruneIdx)
						}
						if !pruneIdx {
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
