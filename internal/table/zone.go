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

// superBlocks is the block count of one super-zone, the zone map's second
// level: a query bounds every super-zone, and the blocks of only those it
// reaches. See docs/KERNELS.md "Zone maps and curve order" for why 32.
const superBlocks = 32

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
// semantics) and sorted once by an LSD radix sort on key<<rowBits | row,
// a byte a pass, each pass split into one run per worker; the result is
// the same for every worker count.
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
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runs := max(1, min(workers, n>>16)) // at least 64 Ki keys a run
	keys = radixSort(keys, make([]uint64, n), make([]int, runs<<8), rowBits, keyBits, 8)
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
// radix sort of digit bits a pass, so keys equal there keep their order.
// It allocates nothing: buf is a second buffer of len(keys), and the
// sorted slice returned is one of the two. counts holds runs × 2^digit
// digit counters, and its length chooses runs: each pass splits the keys
// into that many contiguous runs, counts every run's digits, and then
// scatters every run from its own offsets — digit-major, run-minor, which
// keeps the sort stable and its result the same for every run count.
// A pass whose digit is the same for every key is skipped.
//
//metriclint:noalloc
func radixSort(keys, buf []uint64, counts []int, shift, nbits, digit int) []uint64 {
	n, radix := len(keys), 1<<digit
	runs := len(counts) / radix
	run := (n + runs - 1) / runs
	for sh := shift; sh < shift+nbits && n > 1; sh += digit {
		mask := uint64(1)<<min(digit, shift+nbits-sh) - 1
		radixStep(keys, nil, counts, run, radix, uint(sh), mask)
		same, d0 := 0, int(keys[0]>>uint(sh)&mask)
		for w := 0; w < runs; w++ {
			same += counts[w*radix+d0]
		}
		if same == n {
			continue // one digit for every key: the pass would copy
		}
		sum := 0
		for d := 0; d < radix; d++ {
			for w := d; w < len(counts); w += radix {
				counts[w], sum = sum, sum+counts[w]
			}
		}
		radixStep(keys, buf, counts, run, radix, uint(sh), mask)
		keys, buf = buf, keys
	}
	return keys
}

// radixStep runs one stage of a radix pass over every run of run keys:
// with dst nil it counts each run's digits into its counters, else it
// scatters each run into dst from its offsets. One run goes inline; more
// go out one goroutine each (core.ParallelFor).
func radixStep(keys, dst []uint64, counts []int, run, radix int, sh uint, mask uint64) {
	runs := len(counts) / radix
	if runs == 1 {
		radixRun(keys, dst, counts, sh, mask)
		return
	}
	n := len(keys)
	core.ParallelFor(runs, runs, func(first, last int) {
		for w := first; w < last; w++ {
			radixRun(keys[min(n, w*run):min(n, (w+1)*run)], dst, counts[w*radix:(w+1)*radix], sh, mask)
		}
	})
}

// radixRun is radixStep's work on one run and its counters c.
//
//metriclint:noalloc
func radixRun(keys, dst []uint64, c []int, sh uint, mask uint64) {
	if dst == nil {
		clear(c)
		for _, k := range keys {
			c[k>>sh&mask]++
		}
		return
	}
	for _, k := range keys {
		d := k >> sh & mask
		dst[c[d]] = k
		c[d]++
	}
}

// zoneMap is the shared layout's zone map, two levels deep. lo[c][b] and
// hi[c][b] bound column c over block b, rows [b·zoneRows, (b+1)·zoneRows);
// slo[c][s] and shi[c][s] bound it over super-zone s, blocks
// [s·superBlocks, (s+1)·superBlocks), and cover every block zone under
// them. Both levels are column-major, like the columns. They are exact
// when built and only ever widened by updates, so they stay conservative.
// The per-row layout has none (nil).
type zoneMap struct {
	lo, hi   [][]float64
	slo, shi [][]float64
}

// buildZones computes the zone map of the columns from scratch, the
// super-zones fanned out over workers (core.ParallelFor semantics).
func buildZones(cols [][]float64, workers int) zoneMap {
	n := len(cols[0])
	nb := (n + zoneRows - 1) / zoneRows
	ns := (nb + superBlocks - 1) / superBlocks
	l := len(cols)
	z := zoneMap{lo: make([][]float64, l), hi: make([][]float64, l), slo: make([][]float64, l), shi: make([][]float64, l)}
	for c := range cols {
		z.lo[c], z.hi[c] = make([]float64, nb), make([]float64, nb)
		z.slo[c], z.shi[c] = make([]float64, ns), make([]float64, ns)
	}
	core.ParallelFor(ns, workers, func(start, end int) {
		for c, col := range cols {
			for s := start; s < end; s++ {
				slo, shi := math.Inf(1), math.Inf(-1)
				for b := s * superBlocks; b < min(nb, (s+1)*superBlocks); b++ {
					lo, hi := math.Inf(1), math.Inf(-1)
					for _, d := range col[b*zoneRows : min(n, (b+1)*zoneRows)] {
						lo, hi = cover(lo, hi, d)
					}
					z.lo[c][b], z.hi[c][b] = lo, hi
					slo, shi = min(slo, lo), max(shi, hi)
				}
				z.slo[c][s], z.shi[c][s] = slo, shi
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

// widen grows block b's zone in column c, and its super-zone's, to cover
// distance d.
func (z *zoneMap) widen(c, b int, d float64) {
	z.lo[c][b], z.hi[c][b] = cover(z.lo[c][b], z.hi[c][b], d)
	s := b / superBlocks
	z.slo[c][s], z.shi[c][s] = cover(z.slo[c][s], z.shi[c][s], d)
}

// add covers row's distances: the row widens its block's zone, or opens
// the block when it is the block's first row — and the super-zone, when
// the block is its first.
func (z *zoneMap) add(row int, dists []float64) {
	b := row / zoneRows
	for c := range z.lo {
		if b == len(z.lo[c]) {
			z.lo[c] = append(z.lo[c], math.Inf(1))
			z.hi[c] = append(z.hi[c], math.Inf(-1))
			if b%superBlocks == 0 {
				z.slo[c] = append(z.slo[c], math.Inf(1))
				z.shi[c] = append(z.shi[c], math.Inf(-1))
			}
		}
		z.widen(c, b, dists[c])
	}
}

// truncate keeps the zones of the blocks, and super-zones, rows [0, n)
// occupy. A kept super-zone keeps its width: it still covers its blocks.
func (z *zoneMap) truncate(n int) {
	nb := (n + zoneRows - 1) / zoneRows
	if len(z.lo) == 0 || len(z.lo[0]) == nb {
		return // the per-row layout, or no block emptied
	}
	ns := (nb + superBlocks - 1) / superBlocks
	for c := range z.lo {
		z.lo[c], z.hi[c] = z.lo[c][:nb], z.hi[c][:nb]
		z.slo[c], z.shi[c] = z.slo[c][:ns], z.shi[c][:ns]
	}
}

// blockRef marks a heap entry as a block; an entry without it is a
// super-zone. Refs are compared whole, so at equal bounds super-zones pop
// before blocks, and each level in storage order.
const blockRef = 1 << 31

// visitor is a scan's best-first walk over the blocks of the table: one
// core.MinHeap of super-zones and blocks, ordered by (bound, super-zone
// before block, number) — the entry's tie is its ref. It starts with every
// super-zone; a super-zone is expanded — its blocks bounded and pushed —
// only when it pops, and a popped block is the next one to scan.
//
// The blocks come out in exactly the order of one heap over every block,
// (bound, number): a super-zone's bound is at most each of its blocks', so
// when a block pops, every super-zone bounded at or below it has popped
// before it and every block that order puts first is in the heap already.
// A query thus bounds every super-zone and the blocks of those it reaches,
// not every block. The per-row layout has no zones: its heap starts with
// every block at bound 0, pushed in storage order — already a heap, so
// nothing sifts — which is its scan order.
type visitor struct {
	z  *zoneMap
	qd []float64
	h  *core.MinHeap[struct{}] // within the capacity begin reserved: every super-zone and block
	nb int
}

// visit starts the walk over the nb blocks of a query with pivot
// distances qd in the heap h. An entry bounded above limit is never
// pushed: the limit never loosens (a kNN one falls, or turns NaN and
// prunes nothing from then on), so the entry could only have stopped the
// walk.
//
//metriclint:noalloc
func (z *zoneMap) visit(h *core.MinHeap[struct{}], qd []float64, nb int, limit float64) visitor {
	h.Reset()
	v := visitor{z: z, qd: qd, h: h, nb: nb}
	if len(z.lo) == 0 {
		for b := range nb {
			h.Push(0, blockRef|uint32(b), struct{}{})
		}
		return v
	}
	v.push(z.slo, z.shi, 0, (nb+superBlocks-1)/superBlocks, 0, limit)
	return v
}

// next returns the next block to scan, expanding every super-zone that
// pops before it, or -1 once the heap is empty or its least bound exceeds
// limit: no row of a remaining block survives Lemma 1 then.
//
//metriclint:noalloc
func (v *visitor) next(limit float64) int {
	for {
		e, ok := v.h.PopWithin(limit)
		if !ok {
			return -1
		}
		if e.Tie&blockRef != 0 {
			return int(e.Tie &^ blockRef)
		}
		s := int(e.Tie) * superBlocks
		v.push(v.z.lo, v.z.hi, s, min(s+superBlocks, v.nb), blockRef, limit)
	}
}

// push bounds zones [first, end) of one level (lo, hi), superBlocks at a
// time, and pushes those within limit as ref | number.
//
//metriclint:noalloc
func (v *visitor) push(lo, hi [][]float64, first, end int, ref uint32, limit float64) {
	var lb [superBlocks]float64
	for ; first < end; first += superBlocks {
		m := min(superBlocks, end-first)
		core.ZoneBounds(lb[:m], lo, hi, v.qd, first)
		for i, g := range lb[:m] {
			if !(g > limit) {
				v.h.Push(g, ref|uint32(first+i), struct{}{})
			}
		}
	}
}
