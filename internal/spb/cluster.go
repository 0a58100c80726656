package spb

import (
	"fmt"
	"math"
	"slices"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/store"
)

// The M-index family (§5.3) and the paper's improved M-index*.
//
// The M-index generalizes iDistance to metric spaces: objects are
// partitioned by generalized hyperplane partitioning (each object belongs
// to its nearest pivot's cluster) and mapped to the real key
//
//	key(o) = slot(cluster) · d⁺ + d(p_cluster, o)
//
// indexed by the B+-tree; the objects, with all their pre-computed pivot
// distances, live in the RAF. Clusters exceeding maxnum objects split
// dynamically using the next-nearest pivot (Fig 12(d)). Range queries
// prune clusters with double-pivot filtering (Lemma 3) and candidates
// with pivot filtering (Lemma 1); the plain M-index answers MkNNQ by
// repeated range queries with growing radius.
//
// M-index* additionally keeps the pivot-space MBB of every cluster,
// enabling Lemma 1 pruning of whole clusters, a single best-first MkNNQ
// traversal, and Lemma 4 validation of range candidates — the behaviour
// Fig 15 compares.

// DefaultMaxNum is the paper's cluster split threshold (§5.3).
const DefaultMaxNum = 1600

// MIndexOptions tunes an M-index build.
type MIndexOptions struct {
	// Star builds the M-index* (cluster MBBs, best-first kNN, Lemma 4
	// validation).
	Star bool
	// MaxNum is the cluster split threshold (DefaultMaxNum when 0).
	MaxNum int
	// MaxDistance is d⁺, the key-space stride. Required.
	MaxDistance float64
}

// cluster is a node of the in-memory cluster tree. A leaf owns a key
// slot in the B+-tree; an internal cluster has children indexed by the
// next-nearest pivot index, nil where no object has gone yet — walked in
// pivot order, so every traversal, and with it compdists and page
// accesses, is the same on every run.
type cluster struct {
	pivotIdx int // defining pivot of this cluster (-1 at the root)
	depth    int // pivots chosen on the path here: a leaf splits while depth < l
	// internal
	children []*cluster
	// leaf
	slot  int
	count int
	minD  float64 // min/max of d(p_pivotIdx, o) over members
	maxD  float64
	mbb   core.MBB // bounds over all pivots
}

func (c *cluster) leaf() bool { return c.children == nil }

// clusters is the M-index family: the cluster tree, and by slot its
// leaves (nil where a split retired the slot).
type clusters struct {
	l       int
	maxDist float64
	maxNum  int
	star    bool
	root    *cluster
	leaves  []*cluster
}

// NewMIndex builds the M-index, or with opts.Star the M-index*, over all
// live objects by inserting them one by one.
func NewMIndex(ds *core.Dataset, pager *store.Pager, pivots []int, opts MIndexOptions) (*Index, error) {
	if len(pivots) < 2 {
		return nil, fmt.Errorf("spb: M-index: generalized hyperplane partitioning needs >= 2 pivots, got %d", len(pivots))
	}
	if opts.MaxNum <= 0 {
		opts.MaxNum = DefaultMaxNum
	}
	l := len(pivots)
	f := &clusters{l: l, maxDist: opts.MaxDistance, maxNum: opts.MaxNum, star: opts.Star}
	kind := "M-index"
	if opts.Star {
		kind = "M-index*"
	}
	s, err := newIndex(&Index{kind: kind, word: uint32(opts.MaxNum), stored: true, validate: opts.Star,
		fam: f, ds: ds, pager: pager, maxDist: opts.MaxDistance}, pivots, nil)
	if err != nil {
		return nil, err
	}
	f.root = &cluster{pivotIdx: -1, children: make([]*cluster, l)}
	for i := range l {
		f.root.children[i] = f.newLeaf(i, 1)
	}
	for _, id := range ds.LiveIDs() {
		if err := s.Insert(id); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (f *clusters) prepare(*scratch) {}

// memBytes is the cluster tree's footprint: its leaves, and its internal
// clusters — the root and one per slot a split retired.
func (f *clusters) memBytes() int64 {
	var leaves int64
	for _, c := range f.leaves {
		if c != nil {
			leaves++
		}
	}
	return leaves*(64+int64(f.l)*16) + (int64(len(f.leaves))-leaves+1)*48
}

func (f *clusters) newLeaf(pivotIdx, depth int) *cluster {
	c := &cluster{pivotIdx: pivotIdx, depth: depth, slot: len(f.leaves),
		minD: math.Inf(1), maxD: math.Inf(-1), mbb: core.NewMBB(f.l)}
	f.leaves = append(f.leaves, c)
	return c
}

// key maps (slot, pivot distance) to the B+-tree key. A distance of d⁺
// or more is clamped to the band's last key, which stands for every
// distance from there up.
func (f *clusters) key(slot int, d float64) uint64 {
	return min(bptree.KeyFromFloat(float64(slot)*f.maxDist+d), f.bandEnd(slot))
}

// bandEnd is the largest key inside a slot's band: one ulp below the next
// slot's origin, so band scans never leak into the neighbouring cluster.
func (f *clusters) bandEnd(slot int) uint64 {
	return bptree.KeyFromFloat(float64(slot+1)*f.maxDist) - 1
}

// leafFor descends the cluster tree for an object's distance vector,
// returning the leaf cluster.
func (f *clusters) leafFor(dv []float64) *cluster {
	c := f.root
	var used []int
	for !c.leaf() {
		// Nearest pivot among those not used on this path.
		best, bestD := -1, math.Inf(1)
		for i := range f.l {
			if !slices.Contains(used, i) && dv[i] < bestD {
				best, bestD = i, dv[i]
			}
		}
		child := c.children[best]
		if child == nil {
			child = f.newLeaf(best, c.depth+1)
			c.children[best] = child
		}
		used = append(used, best)
		c = child
	}
	return c
}

// insert keys the object into its cluster's band, splitting the cluster
// if it exceeds maxnum (Fig 12(d)).
func (f *clusters) insert(s *Index, id int, dv []float64) error {
	c := f.leafFor(dv)
	d := dv[c.pivotIdx]
	if err := s.tree.Insert(f.key(c.slot, d), uint64(id)); err != nil {
		return err
	}
	c.count++
	c.minD = min(c.minD, d)
	c.maxD = max(c.maxD, d)
	c.mbb.Extend(dv)
	if c.count > f.maxNum && c.depth < f.l {
		return f.split(s, c)
	}
	return nil
}

func (f *clusters) remove(s *Index, id int, dv []float64) error {
	c := f.leafFor(dv)
	if err := s.tree.Delete(f.key(c.slot, dv[c.pivotIdx]), uint64(id)); err != nil {
		return err
	}
	c.count--
	return nil
}

// split turns a leaf cluster into an internal node, redistributing its
// members into sub-clusters by their next-nearest pivot.
func (f *clusters) split(s *Index, c *cluster) error {
	var members []bptree.Record
	if err := s.tree.RangeScan(f.key(c.slot, 0), f.bandEnd(c.slot), func(k, v uint64) bool {
		members = append(members, bptree.Record{Key: k, Val: v})
		return true
	}); err != nil {
		return err
	}
	c.children = make([]*cluster, f.l)
	f.leaves[c.slot] = nil
	sc := s.getScratch()
	defer s.pool.Put(sc)
	for _, m := range members {
		dv, _, err := s.load(sc, int(m.Val))
		if err != nil {
			return err
		}
		if err := s.tree.Delete(m.Key, m.Val); err != nil {
			return err
		}
		if err := f.insert(s, int(m.Val), dv); err != nil {
			return err
		}
	}
	return nil
}

// walkLeaves hands fn, in pivot order, the non-empty leaf clusters under
// c, whose path chose the pivots in used, that survive pruning for a
// range query of radius r (at r = +Inf, every one).
// Lemma 3 (double-pivot filtering) discards a cluster when d(q,
// p_cluster) − min_j d(q, p_j) > 2r over the pivots j that competed in
// the same partition; M-index* additionally applies Lemma 1 on the
// cluster MBB.
func (f *clusters) walkLeaves(c *cluster, used []int, qd []float64, r float64, fn func(c *cluster) error) error {
	if c.leaf() {
		if c.count == 0 || f.star && c.mbb.PruneMBB(qd, r) {
			return nil
		}
		return fn(c)
	}
	// Minimum query-pivot distance among the pivots competing at this
	// node (all pivots not yet used on the path).
	dqmin := math.Inf(1)
	for i, d := range qd {
		if !slices.Contains(used, i) {
			dqmin = min(dqmin, d)
		}
	}
	for pi, child := range c.children {
		if child != nil && !core.PruneHyperplane(qd[pi], dqmin, r) {
			if err := f.walkLeaves(child, append(used, pi), qd, r, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// ranges runs the band scan of every surviving cluster over its iDistance
// band [d(q, p_c) − r, d(q, p_c) + r], clamped to the cluster's distances.
func (f *clusters) ranges(s *Index, sc *scratch, q core.Object, r float64) error {
	return f.walkLeaves(f.root, nil, sc.qd, r, func(c *cluster) error {
		dqp := sc.qd[c.pivotIdx]
		lo, hi := max(dqp-r, c.minD), min(dqp+r, c.maxD)
		if lo > hi {
			return nil
		}
		return s.scanBand(sc, q, f.key(c.slot, lo), f.key(c.slot, hi))
	})
}

// keys keeps every record of a range band keyed in [lo, hi] (the band is
// the key test) that an earlier growing-radius round did not verify; a
// kNN keeps those whose band bound is within r, and in the forward half
// the first key beyond r ends the band.
func (f *clusters) keys(sc *scratch, n bptree.View, lo, hi uint64, r float64) bool {
	for i, count := 0, n.Len(); i < count; i++ {
		key, val := n.Record(i)
		switch {
		case key > hi:
			return false
		case key < lo || sc.seen != nil && sc.seen[int(val)]:
		case !sc.knn:
			sc.cands = append(sc.cands, int(val))
		default:
			if lb := sc.band.lb(key); lb <= r {
				sc.lazy.Push(lb, uint32(i), int(val))
			} else if sc.forward {
				return false
			}
		}
	}
	return true
}

// seed queues every non-empty cluster under its MBB lower bound.
func (f *clusters) seed(s *Index, sc *scratch) {
	_ = f.walkLeaves(f.root, nil, sc.qd, math.Inf(1), func(c *cluster) error {
		sc.nodes.Push(c.mbb.MinDist(sc.qd), 0, uint32(c.slot))
		return nil
	})
}

// expand scans a cluster's band outwards from d(q, p_c): first the keys
// at or above it, whose lower bounds only grow, then those below.
func (f *clusters) expand(s *Index, sc *scratch, q core.Object, it core.Ranked[uint32]) error {
	c := f.leaves[it.V]
	b := &sc.band
	*b = band{dq: sc.qd[c.pivotIdx], origin: float64(c.slot) * f.maxDist, minD: c.minD, end: f.bandEnd(c.slot)}
	start := b.key(b.dq)
	if b.dq <= c.maxD {
		sc.forward = true
		if err := s.scanBand(sc, q, start, b.key(c.maxD)); err != nil {
			return err
		}
	}
	sc.forward = false
	if start > b.key(c.minD) {
		return s.scanBand(sc, q, b.key(b.dq-sc.heap.Radius()), start-1)
	}
	return nil
}

// knn is the plain M-index's kNN rule: range queries re-run with a
// doubling radius (§5.3's stated weakness: the index is traversed
// multiple times), each verifying only what an earlier round did not.
// The M-index* answers best first.
func (f *clusters) knn(s *Index, sc *scratch, q core.Object, k int) error {
	if f.star {
		return s.bestFirst(sc, q)
	}
	sc.knn, sc.seen = false, make(map[int]bool)
	h, far := &sc.heap, f.maxDist
	for _, c := range f.leaves {
		if c != nil && c.count > 0 {
			far = max(far, slices.Max(c.mbb.Hi))
		}
	}
	for r := f.maxDist / 64; ; r *= 2 {
		sc.r = r
		if err := f.ranges(s, sc, q, r); err != nil || h.Len() >= min(k, s.Len()) && h.Radius() <= r {
			return err
		}
		// Completion bound: once r >= max_i d(q,p_i) + far, where far
		// bounds every stored distance (d⁺, or more beyond d⁺), no
		// lemma can prune and every band covers all of its cluster, so
		// the scan above was exhaustive. This matters for query objects
		// far outside the data domain, where d(q,p) exceeds d⁺.
		if r >= slices.Max(sc.qd)+far {
			return nil
		}
	}
}

// band is the cluster band a kNN is scanning.
type band struct {
	dq     float64 // d(q, p_c)
	origin float64 // slot · d⁺
	minD   float64
	end    uint64 // the band's last key
}

// key is the band's key of distance d, clamped to the cluster's minD and
// to the band.
func (b *band) key(d float64) uint64 {
	return min(bptree.KeyFromFloat(b.origin+max(d, b.minD)), b.end)
}

// lb is Lemma 1 on a key: a lower bound of |d(q, p_c) − d(o, p_c)|.
// The distance read back from the key is off by at most an ulp of the
// key, and a key at the band's end stands for every distance from there
// up, so the bound is widened by a slack above both.
func (b *band) lb(key uint64) float64 {
	k := math.Float64frombits(key)
	d := k - b.origin
	slack := (k + b.dq) * 0x1p-50
	switch {
	case d > b.dq:
		return d - b.dq - slack
	case key == b.end:
		return 0
	}
	return b.dq - d - slack
}

// section writes the cluster tree: the slot count, then the root (see
// writeNode).
func (f *clusters) section(w *store.Writer) {
	w.U32(uint32(len(f.leaves)))
	f.writeNode(w, f.root)
}

// writeNode writes an internal cluster's child table: its width, then
// per pivot a tag (0 no child, 1 leaf, 2 internal) and the child — a
// leaf as its slot, count, minD, maxD and MBB.
func (f *clusters) writeNode(w *store.Writer, c *cluster) {
	w.U32(uint32(len(c.children)))
	for _, ch := range c.children {
		switch {
		case ch == nil:
			w.U8(0)
		case !ch.leaf():
			w.U8(2)
			f.writeNode(w, ch)
		default:
			w.U8(1)
			w.U32(uint32(ch.slot))
			w.U32(uint32(ch.count))
			w.F64(ch.minD)
			w.F64(ch.maxD)
			w.Floats(ch.mbb.Lo)
			w.Floats(ch.mbb.Hi)
		}
	}
}

// readSection decodes the cluster tree of an l-pivot M-index whose
// B+-tree holds records keys. It rejects a child table or MBB other than
// l wide (a table's position is its child's pivot, so this also rejects
// a pivot ≥ l), a child at a pivot already on its path, an unknown tag,
// a slot out of range or reached twice, a leaf whose distance range is
// not 0 ≤ minD ≤ maxD < +Inf (or, empty and never filled, +Inf and
// −Inf), and counts that do not add up to the B+-tree's records.
func readSection(r *store.Reader, l int, maxDist float64, maxNum int, star bool, records int) (*clusters, error) {
	f := &clusters{l: l, maxDist: maxDist, maxNum: maxNum, star: star, root: &cluster{pivotIdx: -1}}
	slots := int(r.U32())
	if r.Err() == nil && slots > r.Remaining() {
		return nil, fmt.Errorf("spb: %d cluster slots in a %d-byte section", slots, r.Remaining())
	}
	f.leaves = make([]*cluster, slots)
	total, err := f.readNode(r, f.root, nil)
	if err == nil && total != records {
		err = fmt.Errorf("spb: the clusters count %d objects, the B+-tree holds %d", total, records)
	}
	return f, err
}

// readNode decodes the child table of c, whose path from the root chose
// the pivots in path, and returns the objects its leaves count.
func (f *clusters) readNode(r *store.Reader, c *cluster, path []int) (int, error) {
	if width := int(r.U32()); r.Err() == nil && width != f.l {
		return 0, fmt.Errorf("spb: a cluster child table is %d wide, not %d", width, f.l)
	}
	c.children = make([]*cluster, f.l)
	total := 0
	for pi := 0; pi < f.l && r.Err() == nil; pi++ {
		tag := r.U8()
		if tag != 0 && slices.Contains(path, pi) {
			return 0, fmt.Errorf("spb: a cluster child at pivot %d, already on its path", pi)
		}
		ch := &cluster{pivotIdx: pi, depth: len(path) + 1}
		switch tag {
		case 0:
			continue
		case 2:
			sub, err := f.readNode(r, ch, append(path, pi))
			if err != nil {
				return 0, err
			}
			total += sub
		case 1:
			ch.slot, ch.count = int(r.U32()), int(r.U32())
			ch.minD, ch.maxD = r.F64(), r.F64()
			ch.mbb = core.MBB{Lo: r.Floats(), Hi: r.Floats()}
			if r.Err() != nil {
				return 0, r.Err()
			}
			if err := f.checkLeaf(ch); err != nil {
				return 0, err
			}
			f.leaves[ch.slot] = ch
			total += ch.count
		default:
			return 0, fmt.Errorf("spb: cluster tag %d", tag)
		}
		c.children[pi] = ch
	}
	return total, r.Err()
}

// checkLeaf vets a decoded leaf before it takes its slot.
func (f *clusters) checkLeaf(c *cluster) error {
	switch {
	case c.slot >= len(f.leaves) || f.leaves[c.slot] != nil:
		return fmt.Errorf("spb: cluster slot %d out of range or reached twice", c.slot)
	case len(c.mbb.Lo) != f.l || len(c.mbb.Hi) != f.l:
		return fmt.Errorf("spb: a cluster MBB is %d×%d wide, not %d", len(c.mbb.Lo), len(c.mbb.Hi), f.l)
	case !(c.minD >= 0 && c.minD <= c.maxD && c.maxD < math.Inf(1)) &&
		!(c.count == 0 && c.minD == math.Inf(1) && c.maxD == math.Inf(-1)):
		return fmt.Errorf("spb: cluster slot %d has distance range [%v, %v]", c.slot, c.minD, c.maxD)
	}
	return nil
}
