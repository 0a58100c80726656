package spb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/sfc"
	"metricindex/internal/store"
)

// The SPB-tree family (§5.4): pre-computed pivot distances are
// discretized onto an integer grid and mapped to a single integer by a
// Hilbert space-filling curve (preserving proximity); the B+-tree's
// non-leaf entries carry packed MBB corners, and the RAF is laid out in
// curve order for locality.
//
// The SFC compression is why the SPB-tree has the smallest storage and
// I/O costs in Table 4, and the discretization is why its pruning is
// slightly weaker than exact-distance indexes on continuous metrics
// (§5.4, §6.5.2): all filtering here widens distances to the enclosing
// grid cell, staying conservative. The top cell of every axis is
// open-ended: a distance of d⁺ or more is clamped into it, so its upper
// line is +Inf and the key of any object, however far, still bounds it.

// grid is the SPB-tree family.
type grid struct {
	curve    *sfc.Hilbert
	scale    float64 // grid cells per distance unit
	bits     int
	laneMask uint64 // one lane of a packed cell: bits ones
	// bounds[g] is bound(g) for every grid line of a grid of at most
	// maxBoundBits bits (empty above that).
	bounds []float64
}

// maxBoundBits is the widest grid whose lines are tabulated: 2^16+1
// float64s are 512 KB, and 16 bits is the most the default grid uses.
const maxBoundBits = 16

// newGrid derives the curve, the grid scale and the grid-line table from
// the pivot count, bit width and d⁺.
func newGrid(l, bits int, maxDist float64) (*grid, error) {
	if bits < 1 || bits*l > 64 {
		return nil, fmt.Errorf("spb: %d pivots × %d bits exceeds 64-bit keys", l, bits)
	}
	curve, err := sfc.NewHilbert(l, bits)
	if err != nil {
		return nil, err
	}
	g := &grid{curve: curve, bits: bits, laneMask: uint64(1)<<uint(bits) - 1}
	g.scale = float64(g.laneMask) / maxDist
	if bits <= maxBoundBits {
		g.bounds = make([]float64, 1<<uint(bits)+1)
		for i := range g.bounds {
			g.bounds[i] = float64(i) / g.scale
		}
		g.bounds[g.laneMask+1] = math.Inf(1)
	}
	return g, nil
}

// New builds the SPB-tree over all live objects: distances are computed,
// discretized, Hilbert-mapped, and bulk-inserted in key order so the RAF
// is laid out along the curve.
func New(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*Index, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("spb: no pivots")
	}
	bits := opts.Bits
	if bits <= 0 {
		bits = min(62/len(pivots), 16)
	}
	g, err := newGrid(len(pivots), bits, opts.MaxDistance)
	if err != nil {
		return nil, err
	}
	s, err := newIndex(&Index{kind: "SPB-tree", word: uint32(bits), fam: g, ds: ds, pager: pager, maxDist: opts.MaxDistance}, pivots, g.aug())
	if err != nil {
		return nil, err
	}

	// Compute keys, sort in curve order, then load.
	bulk := make([]bptree.Record, 0, ds.Count())
	var dv []float64
	for _, id := range ds.LiveIDs() {
		dv = s.distances(dv, ds.Object(id))
		bulk = append(bulk, bptree.Record{Key: g.key(dv), Val: uint64(id)})
	}
	slices.SortFunc(bulk, func(a, b bptree.Record) int { return cmp.Compare(a.Key, b.Key) })
	var enc []byte
	for _, r := range bulk {
		enc = s.encode(enc[:0], nil, ds.Object(int(r.Val)))
		if _, err := s.raf.Append(int(r.Val), enc); err != nil {
			return nil, err
		}
	}
	if err := s.tree.BulkLoad(bulk); err != nil {
		return nil, err
	}
	return s, nil
}

func (g *grid) aug() bptree.Augmenter {
	return cornerAug{curve: g.curve, bits: uint(g.bits), width: uint(g.bits * g.curve.Dims())}
}

func (g *grid) prepare(sc *scratch) { sc.cur.Reset(g.curve) }

func (g *grid) section(*store.Writer) {}

func (g *grid) memBytes() int64 { return g.curve.TableBytes() + int64(len(g.bounds))*8 }

func (g *grid) insert(s *Index, id int, dv []float64) error {
	return s.tree.Insert(g.key(dv), uint64(id))
}

func (g *grid) remove(s *Index, id int, dv []float64) error {
	return s.tree.Delete(g.key(dv), uint64(id))
}

func (g *grid) knn(s *Index, sc *scratch, q core.Object, _ int) error { return s.bestFirst(sc, q) }

// cell discretizes a distance to its cell index; d⁺ and beyond fall in
// the top cell.
func (g *grid) cell(d float64) uint32 {
	return uint32(min(max(d, 0)*g.scale, float64(g.laneMask)))
}

// key is the Hilbert value of the grid cell of a distance vector.
func (g *grid) key(dv []float64) uint64 {
	var buf [64]uint32
	pt := buf[:len(dv)]
	for i, d := range dv {
		pt[i] = g.cell(d)
	}
	return g.curve.Encode(pt)
}

// bound returns grid line i as a distance: the lower bound of the true
// distances in cell i and the upper bound of those in cell i-1; above
// the top cell, +Inf. The table holds the quotient itself, so a
// tabulated bound and a computed one are the same float64.
//
//metriclint:noalloc
func (g *grid) bound(i uint64) float64 {
	switch {
	case i < uint64(len(g.bounds)):
		return g.bounds[i]
	case i > g.laneMask:
		return math.Inf(1)
	}
	return float64(i) / g.scale
}

// cornerAug packs per-dimension grid corners into the B+-tree's
// augmentation slots, one lane of bits per dimension (sfc.PackCorner).
type cornerAug struct {
	curve *sfc.Hilbert
	bits  uint // lane width
	width uint // dims × bits
}

// Leaf returns the (point) MBB of one record: its decoded grid cell.
//
//metriclint:noalloc
func (a cornerAug) Leaf(key, val uint64) (uint64, uint64) {
	packed := a.curve.DecodePacked(key)
	return packed, packed
}

// Merge widens the corner box lane by lane.
//
//metriclint:noalloc
func (a cornerAug) Merge(lo1, hi1, lo2, hi2 uint64) (uint64, uint64) {
	var lo, hi uint64
	for lane := uint64(1)<<a.bits - 1; lane&(uint64(1)<<a.width-1) != 0; lane <<= a.bits {
		lo |= min(lo1&lane, lo2&lane)
		hi |= max(hi1&lane, hi2&lane)
	}
	return lo, hi
}

// The three cell tests below read a packed box (sfc.PackCorner lanes,
// last pivot in the lowest lane) lane by lane from the low end.

// pruneCell applies Lemma 1 conservatively to grid bounds: the box
// [glo, ghi] survives only if some object distance inside it could fall
// in [qd−r, qd+r] for every pivot.
//
//metriclint:noalloc
func (g *grid) pruneCell(sc *scratch, glo, ghi uint64) bool {
	for i := len(sc.qd) - 1; i >= 0; i-- {
		if g.bound(glo&g.laneMask) > sc.qd[i]+sc.r || g.bound(ghi&g.laneMask+1) < sc.qd[i]-sc.r {
			return true
		}
		glo >>= uint(g.bits)
		ghi >>= uint(g.bits)
	}
	return false
}

// validateCell applies Lemma 4 conservatively: if the *upper* bound of
// d(o,p_i) satisfies it for some pivot, the object is certainly a result.
//
//metriclint:noalloc
func (g *grid) validateCell(sc *scratch, c uint64) bool {
	for i := len(sc.qd) - 1; i >= 0; i-- {
		if g.bound(c&g.laneMask+1) <= sc.r-sc.qd[i] {
			return true
		}
		c >>= uint(g.bits)
	}
	return false
}

// cellMinDist is the conservative lower bound of d(q, o) for objects in
// the grid box, used for best-first ordering.
//
//metriclint:noalloc
func (g *grid) cellMinDist(sc *scratch, glo, ghi uint64) float64 {
	var m float64
	for i := len(sc.qd) - 1; i >= 0; i-- {
		var d float64
		if lo := g.bound(glo & g.laneMask); sc.qd[i] < lo {
			d = lo - sc.qd[i]
		} else if hi := g.bound(ghi&g.laneMask + 1); sc.qd[i] > hi {
			d = sc.qd[i] - hi
		}
		if d > m {
			m = d
		}
		glo >>= uint(g.bits)
		ghi >>= uint(g.bits)
	}
	return m
}

// keys reads each key of a leaf as its grid cell: a kNN keeps the
// records whose cell bound is within r, and a range query prunes and
// validates each cell. A key whose cell fails skips the keys after it
// that lie in the widest failing sub-cube around it (skip). The
// SPB-tree scans whole leaves (lo and hi span every key).
func (g *grid) keys(sc *scratch, n bptree.View, _, _ uint64, r float64) bool {
	for i, count := 0, n.Len(); i < count; i++ {
		key, val := n.Record(i)
		c := sc.cur.DecodePacked(key)
		if sc.knn {
			if lb := g.cellMinDist(sc, c, c); lb <= r {
				sc.lazy.Push(lb, uint32(i), int(val))
				continue
			}
		} else if !g.pruneCell(sc, c, c) {
			if g.validateCell(sc, c) {
				sc.ids = append(sc.ids, int(val))
			} else {
				sc.cands = append(sc.cands, int(val))
			}
			continue
		}
		i = g.skip(sc, n, i, key, c, r)
	}
	return true
}

// fails is the key test's verdict on the grid box [glo, ghi] at r: a
// kNN drops a box whose lower bound is not within r, a range query one
// that Lemma 1 prunes.
//
//metriclint:noalloc
func (g *grid) fails(sc *scratch, glo, ghi uint64, r float64) bool {
	if sc.knn {
		return !(g.cellMinDist(sc, glo, ghi) <= r)
	}
	return g.pruneCell(sc, glo, ghi)
}

// skip is called on record i of leaf n, whose key's cell c failed the
// key test at r. The keys of one level-L prefix fill one sub-cube of the
// grid (sfc.Hilbert.SubCube) and sit together in the leaf, so skip
// widens the box around c a level at a time while it still fails —
// from the first level whose sub-cube holds the next key, out to the
// one that holds the leaf's last — and returns the position of the last
// key inside the widest failing sub-cube. The keys it passes need no
// decode and are exactly those the test would drop one by one: a box's
// lower bound is never larger than that of a cell inside it, and a box
// Lemma 1 prunes holds only cells it prunes.
//
//metriclint:noalloc
func (g *grid) skip(sc *scratch, n bptree.View, i int, key, c uint64, r float64) int {
	count := n.Len()
	if i+1 == count {
		return i
	}
	next, _ := n.Record(i + 1)
	last, _ := n.Record(count - 1)
	from, top := g.curve.SharedLevel(key, next), g.curve.SharedLevel(key, last)
	level := -1
	for l := from; l <= top; l++ {
		if glo, ghi := g.curve.SubCube(c, l); !g.fails(sc, glo, ghi, r) {
			break
		}
		level = l
	}
	switch level {
	case -1:
		return i
	case top:
		return count - 1
	}
	// The last key in the sub-cube, by binary search over (i, count).
	_, end := g.curve.PrefixRun(key, level)
	lo, hi := i+1, count-1 // the key at lo is inside, the one at hi past it
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if k, _ := n.Record(mid); k <= end {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ranges descends the B+-tree depth first: non-leaf entries are pruned
// on their MBB corners (Lemma 1), and each reached leaf is one band.
func (g *grid) ranges(s *Index, sc *scratch, q core.Object, r float64) error {
	sc.stack = append(sc.stack[:0], s.tree.Root())
	for len(sc.stack) > 0 {
		pid := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		n, err := s.tree.View(pid)
		if err != nil {
			return err
		}
		if n.Leaf() {
			if _, err := s.scan(sc, q, n, 0, math.MaxUint64); err != nil {
				return err
			}
			continue
		}
		// Pushed right to left, so children pop — and their pages are
		// read — left to right.
		for i := n.Len() - 1; i >= 0; i-- {
			child, glo, ghi := n.Child(i)
			if !g.pruneCell(sc, glo, ghi) {
				sc.stack = append(sc.stack, child)
			}
		}
	}
	return nil
}

// seed queues the root. Equal lower bounds are common on a grid; the
// queue pops them in container/heap's order, which decides the pages a
// kNN reads.
func (g *grid) seed(s *Index, sc *scratch) { sc.nodes.Push(0, 0, uint32(s.tree.Root())) }

// expand queues a non-leaf node's children under their MBB lower bounds
// and runs the band scan over a leaf.
func (g *grid) expand(s *Index, sc *scratch, q core.Object, it core.Ranked[uint32]) error {
	n, err := s.tree.View(store.PageID(it.V))
	if err != nil {
		return err
	}
	if n.Leaf() {
		_, err = s.scan(sc, q, n, 0, math.MaxUint64)
		return err
	}
	for i, count := 0, n.Len(); i < count; i++ {
		child, glo, ghi := n.Child(i)
		lb := max(g.cellMinDist(sc, glo, ghi), it.LB)
		if lb <= sc.heap.Radius() {
			sc.nodes.Push(lb, 0, uint32(child))
		}
	}
	return nil
}
