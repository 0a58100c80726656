// Package spb implements the SPB-tree of [12] (§5.4): pre-computed pivot
// distances are discretized onto an integer grid, mapped to a single
// integer by a Hilbert space-filling curve (preserving proximity), and
// indexed by a B+-tree whose non-leaf entries carry packed MBB corners;
// the objects live in a RAF laid out in SFC order for locality.
//
// The SFC compression is why the SPB-tree has the smallest storage and
// I/O costs in Table 4, and the discretization is why its pruning is
// slightly weaker than exact-distance indexes on continuous metrics
// (§5.4, §6.5.2): all filtering here widens distances to the enclosing
// grid cell, staying conservative.
package spb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/sfc"
	"metricindex/internal/store"
)

// Options tunes construction.
type Options struct {
	// MaxDistance is d⁺, the discretization range. Required.
	MaxDistance float64
	// Bits per dimension (0 = as many as fit: min(16, 62/len(pivots))).
	Bits int
}

// SPB is the SPB-tree handle.
type SPB struct {
	ds        *core.Dataset
	pager     *store.Pager
	opts      Options
	pivotIDs  []int
	pivotVals []core.Object
	curve     *sfc.Hilbert
	tree      *bptree.Tree
	raf       *store.RAF
	scale     float64 // grid cells per distance unit
	bits      int
	laneMask  uint64 // one lane of a packed cell: bits ones
	size      int
	// bounds[g] is float64(g)/scale for every grid line of a grid of at
	// most maxBoundBits bits (empty above that; see bound).
	bounds []float64
	pool   sync.Pool // *scratch
}

// maxBoundBits is the widest grid whose lines are tabulated: 2^16+1
// float64s are 512 KB, and 16 bits is the most the default grid uses.
const maxBoundBits = 16

// scratch is the working memory of one query, pooled per index so a
// steady-state query allocates only its answer.
type scratch struct {
	qd     []float64 // d(q, p_i)
	lo, hi []float64 // range query: qd[i]-r, qd[i]+r
	valid  []float64 // range query: r-qd[i]
	cur    sfc.Cursor
	nodes  core.MinHeap[store.PageID] // kNN: best-first node heap
	cands  []cand                     // kNN: one leaf's candidates
	stack  []store.PageID             // range: depth-first stack
	ids    []int                      // range: result ids
	heap   core.KNNHeap
	rec    []byte      // RAF record
	vec    core.Vector // decoded record, when it is a Vector
	obj    core.Object // vec boxed once, not per candidate
}

// setGrid derives the curve, the grid scale and the grid-line table from
// the pivot count, bit width and d⁺.
func (s *SPB) setGrid() error {
	curve, err := sfc.NewHilbert(len(s.pivotIDs), s.bits)
	if err != nil {
		return err
	}
	s.curve = curve
	s.laneMask = uint64(1)<<uint(s.bits) - 1
	s.scale = float64(s.laneMask) / s.opts.MaxDistance
	if s.bits <= maxBoundBits {
		s.bounds = make([]float64, 1<<uint(s.bits)+1)
		for g := range s.bounds {
			s.bounds[g] = float64(g) / s.scale
		}
	}
	return nil
}

func (s *SPB) aug() cornerAug {
	return cornerAug{curve: s.curve, bits: uint(s.bits), width: uint(s.bits * len(s.pivotIDs))}
}

func (s *SPB) getScratch() *scratch {
	if sc, ok := s.pool.Get().(*scratch); ok {
		return sc
	}
	sc := &scratch{}
	sc.cur.Reset(s.curve)
	return sc
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

// New builds the SPB-tree over all live objects: distances are computed,
// discretized, Hilbert-mapped, and bulk-inserted in key order so the RAF
// is laid out along the curve.
func New(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*SPB, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("spb: no pivots")
	}
	if opts.MaxDistance <= 0 {
		return nil, fmt.Errorf("spb: MaxDistance (d+) must be positive")
	}
	bits := opts.Bits
	if bits <= 0 {
		bits = 62 / len(pivots)
		if bits > 16 {
			bits = 16
		}
	}
	if bits < 1 || bits*len(pivots) > 64 {
		return nil, fmt.Errorf("spb: %d pivots × %d bits exceeds 64-bit keys", len(pivots), bits)
	}
	s := &SPB{
		ds:       ds,
		pager:    pager,
		opts:     opts,
		pivotIDs: append([]int(nil), pivots...),
		raf:      store.NewRAF(pager),
		bits:     bits,
	}
	if err := s.setGrid(); err != nil {
		return nil, err
	}
	s.tree = bptree.New(pager, s.aug())
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("spb: pivot %d is not a live object", p)
		}
		s.pivotVals = append(s.pivotVals, v)
	}

	// Compute keys, sort in curve order, then load.
	bulk := make([]bptree.Record, 0, ds.Count())
	for _, id := range ds.LiveIDs() {
		bulk = append(bulk, bptree.Record{Key: s.keyOf(ds.Object(id)), Val: uint64(id)})
	}
	slices.SortFunc(bulk, func(a, b bptree.Record) int { return cmp.Compare(a.Key, b.Key) })
	var enc []byte
	for _, r := range bulk {
		enc = store.EncodeObject(enc[:0], ds.Object(int(r.Val)))
		if _, err := s.raf.Append(int(r.Val), enc); err != nil {
			return nil, err
		}
	}
	if err := s.tree.BulkLoad(bulk); err != nil {
		return nil, err
	}
	s.size = len(bulk)
	return s, nil
}

// Name returns "SPB-tree".
func (s *SPB) Name() string { return "SPB-tree" }

// Len returns the number of indexed objects.
func (s *SPB) Len() int { return s.size }

// grid discretizes a distance to its cell index.
func (s *SPB) grid(d float64) uint32 {
	if d < 0 {
		d = 0
	}
	g := d * s.scale
	if maxG := float64(s.laneMask); g > maxG {
		g = maxG
	}
	return uint32(g)
}

// bound returns grid line g as a distance: the lower bound of the true
// distances in cell g and the upper bound of those in cell g-1. The
// table holds the quotient itself, so a tabulated bound and a computed
// one are the same float64.
//
//metriclint:noalloc
func (s *SPB) bound(g uint64) float64 {
	if g < uint64(len(s.bounds)) {
		return s.bounds[g]
	}
	return float64(g) / s.scale
}

// keyOf computes the Hilbert key of an object (l counted distances).
func (s *SPB) keyOf(o core.Object) uint64 {
	sp := s.ds.Space()
	var buf [64]uint32
	pt := buf[:len(s.pivotVals)]
	for i, p := range s.pivotVals {
		pt[i] = s.grid(sp.Distance(o, p))
	}
	return s.curve.Encode(pt)
}

// queryDists computes d(q, p_i) exactly (the query is not discretized).
func (s *SPB) queryDists(sc *scratch, q core.Object) {
	sp := s.ds.Space()
	sc.qd = sc.qd[:0]
	for _, p := range s.pivotVals {
		sc.qd = append(sc.qd, sp.Distance(q, p))
	}
}

// The three cell tests below read a packed box (sfc.PackCorner lanes,
// last pivot in the lowest lane) lane by lane from the low end.

// pruneCell applies Lemma 1 conservatively to grid bounds: the box
// [glo, ghi] survives only if some object distance inside it could fall
// in [qd−r, qd+r] for every pivot.
//
//metriclint:noalloc
func (s *SPB) pruneCell(sc *scratch, glo, ghi uint64) bool {
	for i := len(sc.qd) - 1; i >= 0; i-- {
		if s.bound(glo&s.laneMask) > sc.hi[i] || s.bound(ghi&s.laneMask+1) < sc.lo[i] {
			return true
		}
		glo >>= uint(s.bits)
		ghi >>= uint(s.bits)
	}
	return false
}

// validateCell applies Lemma 4 conservatively: if the *upper* bound of
// d(o,p_i) satisfies it for some pivot, the object is certainly a result.
//
//metriclint:noalloc
func (s *SPB) validateCell(sc *scratch, g uint64) bool {
	for i := len(sc.qd) - 1; i >= 0; i-- {
		if s.bound(g&s.laneMask+1) <= sc.valid[i] {
			return true
		}
		g >>= uint(s.bits)
	}
	return false
}

// cellMinDist is the conservative lower bound of d(q, o) for objects in
// the grid box, used for best-first ordering.
//
//metriclint:noalloc
func (s *SPB) cellMinDist(sc *scratch, glo, ghi uint64) float64 {
	var m float64
	for i := len(sc.qd) - 1; i >= 0; i-- {
		var d float64
		if lo := s.bound(glo & s.laneMask); sc.qd[i] < lo {
			d = lo - sc.qd[i]
		} else if hi := s.bound(ghi&s.laneMask + 1); sc.qd[i] > hi {
			d = sc.qd[i] - hi
		}
		if d > m {
			m = d
		}
		glo >>= uint(s.bits)
		ghi >>= uint(s.bits)
	}
	return m
}

// loadObject reads an object from the RAF into the scratch. A Vector is
// decoded into the scratch's own vector, valid until the next call.
func (s *SPB) loadObject(sc *scratch, id int) (core.Object, error) {
	buf, err := s.raf.ReadInto(id, sc.rec)
	if err != nil {
		return nil, err
	}
	sc.rec = buf
	if v, ok := store.DecodeVectorInto(sc.vec, buf); ok {
		if sc.obj == nil || len(v) != len(sc.vec) {
			sc.vec, sc.obj = v, v
		}
		return sc.obj, nil
	}
	o, _, err := store.DecodeObject(buf)
	return o, err
}

// RangeSearch answers MRQ(q, r) by depth-first B+-tree traversal: non-leaf
// entries are pruned on their MBB corners (Lemma 1), leaf entries on
// their decoded cells, validated with Lemma 4 where possible, and
// otherwise verified against the RAF (§5.4).
func (s *SPB) RangeSearch(q core.Object, r float64) ([]int, error) {
	sc := s.getScratch()
	defer s.pool.Put(sc)
	s.queryDists(sc, q)
	sc.lo, sc.hi, sc.valid = sc.lo[:0], sc.hi[:0], sc.valid[:0]
	for _, d := range sc.qd {
		sc.lo = append(sc.lo, d-r)
		sc.hi = append(sc.hi, d+r)
		sc.valid = append(sc.valid, r-d)
	}
	sp := s.ds.Space()
	sc.ids = sc.ids[:0]
	sc.stack = append(sc.stack[:0], s.tree.Root())
	for len(sc.stack) > 0 {
		pid := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		n, err := s.tree.View(pid)
		if err != nil {
			return nil, err
		}
		if !n.Leaf() {
			// Pushed right to left, so children pop — and their pages
			// are read — left to right.
			for i := n.Len() - 1; i >= 0; i-- {
				child, glo, ghi := n.Child(i)
				if !s.pruneCell(sc, glo, ghi) {
					sc.stack = append(sc.stack, child)
				}
			}
			continue
		}
		for i, count := 0, n.Len(); i < count; i++ {
			key, val := n.Record(i)
			g := sc.cur.DecodePacked(key)
			if s.pruneCell(sc, g, g) {
				continue
			}
			id := int(val)
			if s.validateCell(sc, g) {
				sc.ids = append(sc.ids, id)
				continue
			}
			o, err := s.loadObject(sc, id)
			if err != nil {
				return nil, err
			}
			if sp.Distance(q, o) <= r {
				sc.ids = append(sc.ids, id)
			}
		}
	}
	res := append([]int(nil), sc.ids...)
	sort.Ints(res)
	return res, nil
}

// cand is one leaf record awaiting verification.
type cand struct {
	id int
	lb float64
}

// KNNSearch answers MkNNQ(q, k) best-first over B+-tree nodes ordered by
// their conservative MBB lower bounds, verifying leaf candidates against
// the RAF with a tightening radius (§5.4). Equal lower bounds are common
// on a grid; the node heap pops them in container/heap's order, which
// decides the pages a kNN reads.
func (s *SPB) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc := s.getScratch()
	defer s.pool.Put(sc)
	s.queryDists(sc, q)
	sp := s.ds.Space()
	h := &sc.heap
	h.Reset(k)
	sc.nodes.Reset()
	sc.nodes.Push(0, 0, s.tree.Root())
	for it, ok := sc.nodes.PopWithin(h.Radius()); ok; it, ok = sc.nodes.PopWithin(h.Radius()) {
		n, err := s.tree.View(it.V)
		if err != nil {
			return nil, err
		}
		if !n.Leaf() {
			for i, count := 0, n.Len(); i < count; i++ {
				child, glo, ghi := n.Child(i)
				lb := s.cellMinDist(sc, glo, ghi)
				if lb < it.LB {
					lb = it.LB
				}
				if lb <= h.Radius() {
					sc.nodes.Push(lb, 0, child)
				}
			}
			continue
		}
		// Candidates beyond the radius on entering the leaf can never be
		// verified (the radius only shrinks), so they skip the sort.
		sc.cands = sc.cands[:0]
		radius := h.Radius()
		for i, count := 0, n.Len(); i < count; i++ {
			key, val := n.Record(i)
			g := sc.cur.DecodePacked(key)
			if lb := s.cellMinDist(sc, g, g); lb <= radius {
				sc.cands = append(sc.cands, cand{int(val), lb})
			}
		}
		slices.SortFunc(sc.cands, func(a, b cand) int { return cmp.Compare(a.lb, b.lb) })
		for _, c := range sc.cands {
			if c.lb > h.Radius() {
				break
			}
			o, err := s.loadObject(sc, c.id)
			if err != nil {
				return nil, err
			}
			h.Push(c.id, sp.Distance(q, o))
		}
	}
	return h.Result(), nil
}

// Insert computes the object's key, appends it to the RAF (end of curve
// order), and inserts into the B+-tree.
func (s *SPB) Insert(id int) error {
	o := s.ds.Object(id)
	if o == nil {
		return fmt.Errorf("spb: insert of deleted object %d", id)
	}
	if _, err := s.raf.Append(id, store.EncodeObject(nil, o)); err != nil {
		return err
	}
	if err := s.tree.Insert(s.keyOf(o), uint64(id)); err != nil {
		return err
	}
	s.size++
	return nil
}

// Delete recomputes the object's key and removes the record.
func (s *SPB) Delete(id int) error {
	o := s.ds.Object(id)
	if o == nil {
		return fmt.Errorf("spb: delete needs the object still present in the dataset (id %d)", id)
	}
	if err := s.tree.Delete(s.keyOf(o), uint64(id)); err != nil {
		return err
	}
	s.size--
	return s.raf.Delete(id)
}

// PageAccesses reports the pager's accesses.
func (s *SPB) PageAccesses() int64 { return s.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (s *SPB) ResetStats() { s.pager.ResetStats() }

// MemBytes reports what the index keeps in memory beside its pages: the
// pivot table, the RAF's id directory, the Hilbert decode tables and the
// grid-line table.
func (s *SPB) MemBytes() int64 {
	return int64(len(s.pivotVals))*64 + s.raf.MemBytes() + s.curve.TableBytes() + int64(len(s.bounds))*8
}

// DiskBytes reports the B+-tree + RAF footprint (the family's smallest,
// per Table 4, thanks to the SFC compression of the distance vectors).
func (s *SPB) DiskBytes() int64 { return s.pager.DiskBytes() }
