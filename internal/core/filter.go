package core

import (
	"math"
	"math/bits"
)

// This file implements the pivot-filtering machinery of paper §2.3 as
// reusable primitives. All functions operate on pivot-space coordinates:
// qd[i] = d(q, p_i) for the query and od[i] = d(o, p_i) for an object.

// PivotLowerBound returns max_i |d(q,p_i) - d(o,p_i)|, the tightest lower
// bound of d(q, o) available from the pivots (the quantity D(q,o) of §3.2).
//
//metriclint:noalloc
func PivotLowerBound(qd, od []float64) float64 {
	var m float64
	for i := range qd {
		d := math.Abs(qd[i] - od[i])
		if d > m {
			m = d
		}
	}
	return m
}

// PruneObject implements Lemma 1 (pivot filtering) for a single object:
// it reports true when the object provably lies outside MRQ(q, r), i.e.
// when its pivot-space image falls outside the search region SR(q).
//
//metriclint:noalloc
func PruneObject(qd, od []float64, r float64) bool {
	for i := range qd {
		if od[i] > qd[i]+r || od[i] < qd[i]-r {
			return true
		}
	}
	return false
}

// SurviveColumns compacts into sur the table rows of [base, rows) that
// pass Lemma 1 at radius r over struct-of-arrays pivot columns: a row
// survives iff no pivot i has |qd[i] - cols[i][row]| definitely above r
// (the same NaN-keeping sense as PruneObject). It works one 64-row word
// of the range at a time: keepMask gives each column's survival bitmap
// of the word, read at unit stride, and the bitmaps are ANDed across the
// columns; a word that reaches 0 reads none of its later columns. sur
// must hold rows-base entries; the returned slice aliases it, with
// absolute row numbers in increasing order.
//
//metriclint:noalloc
func SurviveColumns(sur []int32, qd []float64, cols [][]float64, base, rows int, r float64) []int32 {
	m := 0
	for w := base; w < rows; w += 64 {
		end := min(w+64, rows)
		keep := ^uint64(0) >> uint(64-(end-w))
		for c := 0; c < len(cols) && keep != 0; c++ {
			keep &= keepMask(cols[c][w:end], qd[c]+r, qd[c]-r)
		}
		for ; keep != 0; keep &= keep - 1 {
			sur[m] = int32(w + bits.TrailingZeros64(keep))
			m++
		}
	}
	return sur[:m]
}

// keepMaskGo is keepMask's Go body: bit i of the result is set iff row
// i of col, at most 64 rows, passes Lemma 1 against [lo, hi] —
// !(d > hi || d < lo), so a NaN on either side keeps the row.
//
//metriclint:noalloc
func keepMaskGo(col []float64, hi, lo float64) uint64 {
	var keep uint64
	for i, d := range col {
		if !(d > hi || d < lo) {
			keep |= 1 << uint(i)
		}
	}
	return keep
}

// SurviveColumnsIndexed is SurviveColumns for tables whose columns store
// per-row pivot references (EPT): column c of row `row` holds the
// distance to pivot pcols[c][row], whose query distance is
// qd[pcols[c][row]].
//
//metriclint:noalloc
func SurviveColumnsIndexed(sur []int32, qd []float64, pcols [][]int32, dcols [][]float64, base, rows int, r float64) []int32 {
	m := 0
	if len(dcols) == 0 {
		for row := base; row < rows; row++ {
			sur[m] = int32(row)
			m++
		}
		return sur[:m]
	}
	pcol := pcols[0][:rows]
	dcol := dcols[0][:rows]
	row := base
	// Same 4-way unroll as SurviveColumns; the extra pivot-index gather
	// stays in cache (the pool is small).
	for ; row+4 <= rows; row += 4 {
		q0, q1, q2, q3 := qd[pcol[row]], qd[pcol[row+1]], qd[pcol[row+2]], qd[pcol[row+3]]
		d0, d1, d2, d3 := dcol[row], dcol[row+1], dcol[row+2], dcol[row+3]
		if !(d0 > q0+r || d0 < q0-r) {
			sur[m] = int32(row)
			m++
		}
		if !(d1 > q1+r || d1 < q1-r) {
			sur[m] = int32(row + 1)
			m++
		}
		if !(d2 > q2+r || d2 < q2-r) {
			sur[m] = int32(row + 2)
			m++
		}
		if !(d3 > q3+r || d3 < q3-r) {
			sur[m] = int32(row + 3)
			m++
		}
	}
	for ; row < rows; row++ {
		q := qd[pcol[row]]
		if d := dcol[row]; d > q+r || d < q-r {
			continue
		}
		sur[m] = int32(row)
		m++
	}
	for c := 1; c < len(dcols); c++ {
		pcol := pcols[c]
		dcol := dcols[c]
		w := 0
		i := 0
		for ; i+4 <= m; i += 4 {
			r0, r1, r2, r3 := sur[i], sur[i+1], sur[i+2], sur[i+3]
			q0, q1, q2, q3 := qd[pcol[r0]], qd[pcol[r1]], qd[pcol[r2]], qd[pcol[r3]]
			d0, d1, d2, d3 := dcol[r0], dcol[r1], dcol[r2], dcol[r3]
			if !(d0 > q0+r || d0 < q0-r) {
				sur[w] = r0
				w++
			}
			if !(d1 > q1+r || d1 < q1-r) {
				sur[w] = r1
				w++
			}
			if !(d2 > q2+r || d2 < q2-r) {
				sur[w] = r2
				w++
			}
			if !(d3 > q3+r || d3 < q3-r) {
				sur[w] = r3
				w++
			}
		}
		for ; i < m; i++ {
			row := sur[i]
			q := qd[pcol[row]]
			if d := dcol[row]; d > q+r || d < q-r {
				continue
			}
			sur[w] = row
			w++
		}
		m = w
	}
	return sur[:m]
}

// PruneRowAt re-applies Lemma 1 to one table row across pivot columns —
// the per-survivor recheck that tightens a SurviveColumns sweep done at
// a stale (larger) kNN radius back to the exact per-row pruning of the
// scalar scan, so verified-candidate sets (and thus compdists and disk
// reads) match the row-at-a-time algorithm exactly.
//
//metriclint:noalloc
func PruneRowAt(qd []float64, cols [][]float64, row int, r float64) bool {
	for c := range cols {
		q := qd[c]
		if d := cols[c][row]; d > q+r || d < q-r {
			return true
		}
	}
	return false
}

// PruneRowIndexedAt is PruneRowAt for pivot-reference columns (EPT).
//
//metriclint:noalloc
func PruneRowIndexedAt(qd []float64, pcols [][]int32, dcols [][]float64, row int, r float64) bool {
	for c := range dcols {
		q := qd[pcols[c][row]]
		if d := dcols[c][row]; d > q+r || d < q-r {
			return true
		}
	}
	return false
}

// ValidateObject implements Lemma 4 (pivot validation): it reports true
// when the object is provably inside MRQ(q, r) — some pivot satisfies
// d(o,p_i) <= r - d(q,p_i) — so the actual distance computation can be
// skipped for result membership (not for result distance).
//
//metriclint:noalloc
func ValidateObject(qd, od []float64, r float64) bool {
	for i := range qd {
		if od[i] <= r-qd[i] {
			return true
		}
	}
	return false
}

// MBB is a minimum bounding box in pivot space: for each pivot i it bounds
// the pre-computed distances of the contained objects to that pivot within
// [Lo[i], Hi[i]]. The zero-value MBB is empty (Lo=+Inf > Hi=-Inf per
// dimension after Reset).
type MBB struct {
	Lo []float64
	Hi []float64
}

// NewMBB returns an empty MBB over l pivots.
func NewMBB(l int) MBB {
	m := MBB{Lo: make([]float64, l), Hi: make([]float64, l)}
	m.Reset()
	return m
}

// Reset empties the box.
func (m MBB) Reset() {
	for i := range m.Lo {
		m.Lo[i] = math.Inf(1)
		m.Hi[i] = math.Inf(-1)
	}
}

// Empty reports whether the box contains no points.
func (m MBB) Empty() bool { return len(m.Lo) == 0 || m.Lo[0] > m.Hi[0] }

// Extend grows the box to cover the pivot-space point od.
func (m MBB) Extend(od []float64) {
	for i, v := range od {
		if v < m.Lo[i] {
			m.Lo[i] = v
		}
		if v > m.Hi[i] {
			m.Hi[i] = v
		}
	}
}

// PruneMBB implements Lemma 1 on a whole region: it reports true when the
// box provably contains no result of MRQ(q, r), i.e. when it does not
// intersect the search region SR(q).
func (m MBB) PruneMBB(qd []float64, r float64) bool {
	if m.Empty() {
		return true
	}
	for i := range qd {
		if m.Lo[i] > qd[i]+r || m.Hi[i] < qd[i]-r {
			return true
		}
	}
	return false
}

// MinDist returns a lower bound of d(q, o) for every object o inside the
// box: the L∞ distance from the query's pivot-space image to the box. It
// drives best-first kNN traversal over MBBs.
func (m MBB) MinDist(qd []float64) float64 {
	if m.Empty() {
		return math.Inf(1)
	}
	return BoxMinDist(qd, m.Lo, m.Hi)
}

// IntervalDist is the distance from x to the interval [lo, hi]: 0 inside
// (and for a NaN x), else how far x lies outside. With x = d(q, p) and
// [lo, hi] bounding d(o, p) over a region, it is Lemma 1's lower bound of
// d(q, o) from pivot p for every object o of the region.
//
//metriclint:noalloc
func IntervalDist(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}

// BoxMinDist is the largest IntervalDist(qd[i], lo[i], hi[i]), and at
// least 0: the L∞ distance from the query's pivot-space image to the box
// [lo, hi], a lower bound of d(q, o) for every object o inside it.
//
//metriclint:noalloc
func BoxMinDist(qd, lo, hi []float64) float64 {
	var m float64
	for i, q := range qd {
		if d := IntervalDist(q, lo[i], hi[i]); d > m {
			m = d
		}
	}
	return m
}

// ZoneGap is Lemma 1 applied to one column of a zone — a table block's
// [lo, hi] bounds of one pivot column: how far the query's pivot
// distance q lies outside the zone (at most 0 inside, NaN when q is
// NaN). Every row under the zone is at least that far from the query.
//
//metriclint:noalloc
func ZoneGap(q, lo, hi float64) float64 {
	if g := q - hi; g > lo-q {
		return g
	}
	return lo - q
}

// ZoneBounds writes into lb the bounds of zones [first, first+len(lb))
// of one level of a zone map, held column-major in lo and hi: for each
// zone, the largest ZoneGap over the columns, and at least 0 —
// MBB.MinDist of the zone, a lower bound of d(q, o) for every row o
// under it. A NaN gap bounds nothing.
//
//metriclint:noalloc
func ZoneBounds(lb []float64, lo, hi [][]float64, qd []float64, first int) {
	clear(lb)
	for c, lo := range lo {
		zoneGaps(lb, lo[first:first+len(lb)], hi[c][first:first+len(lb)], qd[c])
	}
}

// zoneGapsGo is zoneGaps's Go body: it raises each lb[i] to
// ZoneGap(q, lo[i], hi[i]) where that is larger.
//
//metriclint:noalloc
func zoneGapsGo(lb, lo, hi []float64, q float64) {
	for i := range lb {
		if g := ZoneGap(q, lo[i], hi[i]); g > lb[i] {
			lb[i] = g
		}
	}
}

// PruneBall implements Lemma 2 (range-pivot filtering) for ball regions:
// a ball with center-distance dqp = d(q, R.p) and radius rad can be pruned
// when d(q, R.p) > R.r + r.
func PruneBall(dqp, rad, r float64) bool {
	return dqp > rad+r
}

// BallMinDist returns max(0, d(q,p) - R.r), the lower bound of d(q, o) for
// objects inside a ball region.
func BallMinDist(dqp, rad float64) float64 {
	if d := dqp - rad; d > 0 {
		return d
	}
	return 0
}

// PruneHyperplane implements Lemma 3 (double-pivot filtering): the
// partition of pivot p_i can be pruned when d(q,p_i) - d(q,p_j) > 2r for
// some other pivot p_j. Given dqi = d(q,p_i) and the minimum distance
// dqmin = min_j d(q,p_j), the check reduces to dqi - dqmin > 2r.
func PruneHyperplane(dqi, dqmin, r float64) bool {
	return dqi-dqmin > 2*r
}
