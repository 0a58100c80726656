package table

import (
	"math"
	"math/bits"
	"runtime"

	"metricindex/internal/core"
	"metricindex/internal/sfc"
)

// zoneRows is the row count of one block of the shared-pivot layout:
// the unit a zone describes, a query skips or admits, and scan.block
// sweeps. See docs/KERNELS.md "Zone maps and curve order" for why 512.
const zoneRows = 512

// curveDims and curveBits shape the Z-order key Build sorts rows by: 8
// bits of quantized distance for each of the first min(l, curveDims)
// pivot columns.
const (
	curveDims = 8
	curveBits = 8
)

// curveOrder returns the rows of the columns sorted by the Z-order key of
// their quantized distances: entry pos is the input row that goes to
// table row pos (ties, and rows whose keys agree in every bit kept, stay
// in input order). The keys are encoded across workers (core.ParallelFor
// semantics) and sorted once by an LSD radix sort on key<<rowBits | row;
// the result is the same for every worker count.
func curveOrder(cols [][]float64, workers int) []int32 {
	n := len(cols[0])
	dims := min(len(cols), curveDims)
	z, err := sfc.NewZOrder(dims, curveBits)
	if err != nil {
		panic(err) // dims*curveBits <= 64 by construction
	}
	rowBits := bits.Len(uint(n))
	// Keep the key's top bits when key and row do not fit one word.
	keyBits := dims * curveBits
	drop := max(0, keyBits+rowBits-64)
	keyBits -= drop
	var lo, scale [curveDims]float64
	for c := range dims {
		lo[c], scale[c] = quantRange(cols[c])
	}
	keys := make([]uint64, n)
	core.ParallelFor(n, workers, func(start, end int) {
		var p [curveDims]uint32
		for row := start; row < end; row++ {
			for c := range dims {
				p[c] = quantize(cols[c][row], lo[c], scale[c])
			}
			keys[row] = z.Encode(p[:dims])>>uint(drop)<<uint(rowBits) | uint64(row)
		}
	})
	keys = radixSort(keys, rowBits, keyBits, workers)
	order := make([]int32, n)
	rowMask := uint64(1)<<uint(rowBits) - 1
	for pos, k := range keys {
		order[pos] = int32(k & rowMask)
	}
	return order
}

// quantRange returns the offset and scale that map the finite values of
// col onto [0, 2^curveBits).
func quantRange(col []float64) (lo, scale float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, d := range col {
		if d < lo && !math.IsInf(d, -1) {
			lo = d
		}
		if d > hi && !math.IsInf(d, 1) {
			hi = d
		}
	}
	if hi > lo {
		scale = (1 << curveBits) / (hi - lo)
	}
	if math.IsInf(scale, 0) || math.IsNaN(scale) {
		scale = 0
	}
	return lo, scale
}

// quantize maps one distance to its curve coordinate, clamping what lies
// outside the column's finite range; a NaN maps to 0.
func quantize(d, lo, scale float64) uint32 {
	v := (d - lo) * scale
	if !(v > 0) {
		return 0
	}
	if v >= 1<<curveBits-1 {
		return 1<<curveBits - 1
	}
	return uint32(v)
}

// radixSort sorts keys by bits [shift, shift+nbits) with a stable LSD
// radix sort, one byte per pass, so keys equal there keep their order.
// Each pass splits the keys into one contiguous run per worker
// (core.ParallelFor semantics, at least 64 Ki keys a run): the
// workers count their runs' digits, and then scatter them, each from its
// own offsets — digit-major, run-minor, which is what keeps the sort
// stable and its result the same for every worker count. A pass whose
// digit is the same for every key is skipped. It returns the sorted
// slice, which is keys or a buffer of the same length.
func radixSort(keys []uint64, shift, nbits, workers int) []uint64 {
	n := len(keys)
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := max(1, min(workers, n/(1<<16)))
	run := (n + runs - 1) / runs
	counts := make([][256]int, runs)
	var buf []uint64
	for p := 0; p < (nbits+7)/8 && n > 1; p++ {
		sh := uint(shift + 8*p)
		core.ParallelFor(runs, runs, func(first, last int) {
			for w := first; w < last; w++ {
				c := &counts[w]
				*c = [256]int{}
				for _, k := range keys[w*run : min(n, (w+1)*run)] {
					c[byte(k>>sh)]++
				}
			}
		})
		same, d0 := 0, byte(keys[0]>>sh)
		for w := range counts {
			same += counts[w][d0]
		}
		if same == n {
			continue // one digit for every key: the pass would copy
		}
		sum := 0
		for d := range 256 {
			for w := range counts {
				counts[w][d], sum = sum, sum+counts[w][d]
			}
		}
		if buf == nil {
			buf = make([]uint64, n)
		}
		core.ParallelFor(runs, runs, func(first, last int) {
			for w := first; w < last; w++ {
				c := &counts[w]
				for _, k := range keys[w*run : min(n, (w+1)*run)] {
					d := byte(k >> sh)
					buf[c[d]] = k
					c[d]++
				}
			}
		})
		keys, buf = buf, keys
	}
	return keys
}

// zoneMap is the shared layout's zone map: lo[c][b] and hi[c][b] bound
// column c over block b, rows [b·zoneRows, (b+1)·zoneRows) — column-major,
// like the columns. It is exact when built and only ever widened by
// updates, so it stays conservative. The per-row layout has none (nil).
type zoneMap struct {
	lo, hi [][]float64
}

// buildZones computes the zone map of the columns from scratch, the
// blocks fanned out over workers (core.ParallelFor semantics).
func buildZones(cols [][]float64, workers int) zoneMap {
	n := len(cols[0])
	nb := (n + zoneRows - 1) / zoneRows
	z := zoneMap{lo: make([][]float64, len(cols)), hi: make([][]float64, len(cols))}
	for c := range cols {
		z.lo[c], z.hi[c] = make([]float64, nb), make([]float64, nb)
	}
	core.ParallelFor(nb, workers, func(start, end int) {
		for c, col := range cols {
			for b := start; b < end; b++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, d := range col[b*zoneRows : min(n, (b+1)*zoneRows)] {
					lo, hi = cover(lo, hi, d)
				}
				z.lo[c][b], z.hi[c][b] = lo, hi
			}
		}
	})
	return z
}

// cover returns the zone [lo, hi] widened to cover distance d. A NaN
// makes the zone infinite, so no query interval ever misses it: a block
// is skipped only when every one of its rows fails Lemma 1, and a NaN
// row fails no comparison.
func cover(lo, hi, d float64) (float64, float64) {
	if math.IsNaN(d) {
		return math.Inf(-1), math.Inf(1)
	}
	if d < lo {
		lo = d
	}
	if d > hi {
		hi = d
	}
	return lo, hi
}

// widen grows block b's zone in column c to cover distance d.
func (z zoneMap) widen(c, b int, d float64) {
	z.lo[c][b], z.hi[c][b] = cover(z.lo[c][b], z.hi[c][b], d)
}

// add covers row's distances: the row widens its block's zone, or opens
// the block when it is the block's first row.
func (z *zoneMap) add(row int, dists []float64) {
	b := row / zoneRows
	for c := range z.lo {
		if b == len(z.lo[c]) {
			z.lo[c] = append(z.lo[c], math.Inf(1))
			z.hi[c] = append(z.hi[c], math.Inf(-1))
		}
		z.widen(c, b, dists[c])
	}
}

// truncate keeps the zones of the blocks rows [0, n) occupy.
func (z *zoneMap) truncate(n int) {
	nb := (n + zoneRows - 1) / zoneRows
	for c := range z.lo {
		z.lo[c], z.hi[c] = z.lo[c][:nb], z.hi[c][:nb]
	}
}

// zoneGap is Lemma 1 applied to one column of a block: how far the
// query's pivot distance q lies outside the block's [lo, hi] (at most 0
// inside, NaN when q is NaN). Every row of the block is at least that
// far from the query.
//
//metriclint:noalloc
func zoneGap(q, lo, hi float64) float64 {
	if g := q - hi; g > lo-q {
		return g
	}
	return lo - q
}

// blockBounds writes into lb, for every block, the largest zoneGap over
// the columns, and at least 0 — core.MBB.MinDist of the block's zone, a
// lower bound of d(q, o) for every row o of the block. A NaN gap bounds
// nothing. The per-row layout has no zones (column c holds a different
// pivot on every row), so its bounds are all 0 and its blocks go in
// storage order.
//
//metriclint:noalloc
func (t *Table) blockBounds(lb, qd []float64) {
	clear(lb)
	for c, lo := range t.zones.lo {
		q := qd[c]
		lo, hi := lo[:len(lb)], t.zones.hi[c][:len(lb)]
		for b := range lb {
			if g := zoneGap(q, lo[b], hi[b]); g > lb[b] {
				lb[b] = g
			}
		}
	}
}

// blockHeap is the best-first order of a scan's blocks: a binary
// min-heap of block numbers keyed by their lower bound, ties broken by
// block number, so equal bounds keep storage order. Its buffer is the
// scratch's; it never grows.
type blockHeap struct {
	lb []float64
	b  []int32
}

//metriclint:noalloc
func (h *blockHeap) less(i, j int) bool {
	x, y := h.b[i], h.b[j]
	return h.lb[x] < h.lb[y] || h.lb[x] == h.lb[y] && x < y
}

//metriclint:noalloc
func (h *blockHeap) down(i int) {
	n := len(h.b)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if m+1 < n && h.less(m+1, m) {
			m++
		}
		if !h.less(m, i) {
			return
		}
		h.b[i], h.b[m] = h.b[m], h.b[i]
		i = m
	}
}

// init establishes the heap order over the whole buffer.
//
//metriclint:noalloc
func (h *blockHeap) init() {
	for i := len(h.b)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the block with the smallest bound.
//
//metriclint:noalloc
func (h *blockHeap) pop() int {
	top := h.b[0]
	last := len(h.b) - 1
	h.b[0] = h.b[last]
	h.b = h.b[:last]
	h.down(0)
	return int(top)
}
