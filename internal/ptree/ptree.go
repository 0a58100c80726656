// Package ptree implements the pivot trees of paper §4.1–4.3 — the
// Burkhard-Keller Tree (BKT), the Fixed Queries Tree (FQT) and the
// vantage-point trees (VPT [29] and its m-ary form MVPT [5]) — as one
// structure. A node holds a pivot, and each child holds a distance
// interval [lo, hi] to that pivot, pruned with Lemma 1. What tells the
// families apart is data, fixed per family:
//
//   - where a node's pivot comes from: BKT picks one per node from the
//     node's own objects by a seeded min-hash (the paper's random choice,
//     made a function of the id set so parallel and sequential builds
//     agree); FQT and MVPT use the level's pivot from the shared set;
//   - how intervals are cut: BKT and FQT cut fixed-width buckets of
//     ceil(MaxDistance/MaxChildren) for their discrete metrics; MVPT cuts
//     m quantile bands (m = 2 is VPT);
//   - how deep the tree goes: FQT stops after len(pivots) levels, so a
//     root-to-leaf path spells an object's distances to a pivot prefix;
//     MVPT cycles its pivots; BKT has a new pivot at every node.
//
// Only object identifiers live in the tree; values stay in the dataset
// (BKT keeps each node pivot's value, which routes queries even after
// the object is deleted). Storing intervals rather than distance vectors
// is why the tree families spend more compdists but less memory than the
// pivot tables (Table 4, Figs 16-17).
package ptree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"metricindex/internal/core"
)

// Options tunes construction. Each family reads the fields it needs.
type Options struct {
	// LeafCapacity is the bucket size below which a subtree stops
	// splitting. Default 16.
	LeafCapacity int
	// MaxChildren caps a BKT/FQT node's fanout: the bucket width is
	// ceil(MaxDistance/MaxChildren). Default 64.
	MaxChildren int
	// MaxDistance is the distance-domain bound d+ that sizes BKT/FQT
	// buckets. Required by those two.
	MaxDistance float64
	// Arity is the MVPT fanout m (>= 2); 2 builds the VPT. Default 5,
	// the paper's.
	Arity int
	// Seed drives BKT's per-node pivot choice.
	Seed int64
	// Workers parallelizes construction node-level: the per-node pivot
	// distances and sibling subtrees above core.ParallelNodeCutoff spread
	// over a pool of Workers goroutines shared by the whole build (a
	// token scheme, so total concurrency stays bounded however wide the
	// tree fans out). 0 or 1 builds sequentially, negative uses
	// GOMAXPROCS. The tree is identical either way.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.LeafCapacity <= 0 {
		o.LeafCapacity = 16
	}
	if o.MaxChildren <= 0 {
		o.MaxChildren = 64
	}
	if o.MaxDistance <= 0 {
		o.MaxDistance = 1
	}
	if o.Arity < 2 {
		o.Arity = 5
	}
	return o
}

// family is what one tree family fixes.
type family struct {
	name     string
	discrete bool // the metric must be discrete
	ownPivot bool // a pivot per node (BKT), else the level's shared pivot
	bands    bool // m quantile bands (MVPT), else fixed-width buckets
	capped   bool // depth stops at len(pivots) (FQT), else pivots cycle
	header   []field
}

var (
	bkt  = &family{name: "BKT", discrete: true, ownPivot: true, header: bktHeader}
	fqt  = &family{name: "FQT", discrete: true, capped: true, header: fqtHeader}
	mvpt = &family{name: "MVPT", bands: true, header: mvptHeader}
)

// Tree is a pivot tree of one family.
type Tree struct {
	ds       *core.Dataset
	fam      *family
	opts     Options
	pivotIDs []int
	pivots   []core.Object // the level pivots; nil for BKT
	width    float64       // the bucket width; 0 for bands
	root     *node
	size     int
	tokens   *core.TokenPool // nil builds sequentially
}

// node is a leaf (children == nil) or an internal node whose children
// are sorted by lo. Intervals stay conservative across deletions; MVPT
// widens them on insert.
type node struct {
	ids       []int32
	pivotID   int32
	pivot     core.Object // BKT's own pivot; nil routes by the level pivot
	pivotLive bool        // false once the own pivot was deleted
	children  []child
	// grow is the size above which an insert tries to split this leaf
	// again after a split that separated nothing; 0 means the usual
	// 2×LeafCapacity.
	grow int
}

type child struct {
	lo, hi float64
	n      *node
}

func (n *node) leaf() bool { return n.children == nil }

// NewBKT builds a Burkhard-Keller tree (§4.1) over all live objects. The
// metric must be discrete.
func NewBKT(ds *core.Dataset, opts Options) (*Tree, error) {
	return newTree(ds, bkt, nil, opts)
}

// NewFQT builds a Fixed Queries Tree (§4.2) over all live objects, one
// pivot per level in order. The metric must be discrete.
func NewFQT(ds *core.Dataset, pivots []int, opts Options) (*Tree, error) {
	return newTree(ds, fqt, pivots, opts)
}

// NewMVPT builds a multi-vantage-point tree (§4.3) over all live
// objects, one pivot per level, cycling if the tree outgrows the set.
// Arity 2 builds the VPT.
func NewMVPT(ds *core.Dataset, pivots []int, opts Options) (*Tree, error) {
	return newTree(ds, mvpt, pivots, opts)
}

func newTree(ds *core.Dataset, f *family, pivots []int, opts Options) (*Tree, error) {
	if f.discrete && !ds.Space().Metric().Discrete() {
		return nil, fmt.Errorf("%s: %w: %s", f.tag(), core.ErrNotDiscrete, ds.Space().Metric().Name())
	}
	if !f.ownPivot && len(pivots) == 0 {
		return nil, fmt.Errorf("%s: no pivots", f.tag())
	}
	opts = opts.withDefaults()
	t := &Tree{ds: ds, fam: f, opts: opts, tokens: core.NewTokenPool(opts.Workers)}
	if !f.bands {
		t.width = bucketWidth(opts.MaxDistance, opts.MaxChildren)
	}
	if !f.ownPivot {
		t.pivotIDs = append([]int(nil), pivots...)
		for _, p := range pivots {
			v := ds.Object(p)
			if v == nil {
				return nil, fmt.Errorf("%s: pivot %d is not a live object", f.tag(), p)
			}
			t.pivots = append(t.pivots, v)
		}
	}
	ids := make([]int32, 0, ds.Count())
	for _, id := range ds.LiveIDs() {
		ids = append(ids, int32(id))
	}
	t.size = len(ids)
	t.root = t.build(ids, 0)
	return t, nil
}

// tag prefixes the family's error messages.
func (f *family) tag() string { return strings.ToLower(f.name) }

func bucketWidth(maxD float64, maxChildren int) float64 {
	return max(math.Ceil(maxD/float64(maxChildren)), 1)
}

// pivotIndex picks BKT's node pivot as the identifier with the minimum
// seeded hash (ties to the smaller id): a function of the id set alone,
// so concurrent sibling builds and leaf splits whose ids arrived in
// insertion order pick the pivot a sequential fresh build would. It
// returns that pivot's position in ids.
func pivotIndex(seed int64, ids []int32) int {
	best := 0
	bestH := ^uint64(0)
	for i, id := range ids {
		h := core.Mix64(uint64(seed) ^ 0x9e3779b97f4a7c15 ^ uint64(uint32(id)))
		if h < bestH || (h == bestH && id < ids[best]) {
			best, bestH = i, h
		}
	}
	return best
}

// leafAt reports whether size ids at depth level form a leaf.
func (t *Tree) leafAt(size, level int) bool {
	return size <= t.opts.LeafCapacity || t.fam.capped && level >= len(t.pivots)
}

// build returns the subtree over ids at depth level.
func (t *Tree) build(ids []int32, level int) *node {
	if t.leafAt(len(ids), level) {
		return &node{ids: ids}
	}
	n, _ := t.split(ids, level)
	return n
}

// split builds the subtree over ids one level down from a node that
// holds more than a leaf. stuck reports a split that separated nothing:
// every id fell into one interval, and the family's depth is not capped,
// so the next level may cut the same way forever (duplicates, or objects
// equidistant from every pivot). What such a split returns is the shape a
// fresh build keeps — a BKT pivot over one leaf, an oversized MVPT leaf
// in its original order; an insert keeps its leaf instead.
func (t *Tree) split(ids []int32, level int) (n *node, stuck bool) {
	n, groups := t.cut(ids, level)
	if len(groups) == 1 && !t.fam.capped {
		if n.pivot == nil {
			return &node{ids: ids}, true
		}
		n.children[0].n = &node{ids: groups[0]}
		return n, true
	}
	par := t.tokens != nil && len(ids) >= core.ParallelNodeCutoff
	var wg sync.WaitGroup
	for i, g := range groups {
		c := &n.children[i]
		if !par || !t.tokens.TryGo(&wg, func() { c.n = t.build(g, level+1) }) {
			c.n = t.build(g, level+1)
		}
	}
	wg.Wait()
	return n, false
}

// idDist is an id with its distance to the node's pivot.
type idDist struct {
	id int32
	d  float64
}

// cut picks the node's pivot, measures every other id against it and
// groups the ids by child interval, children in ascending order. The
// distance fill fans out over the token pool; the grouping that follows
// is sequential, so groups are identical either way.
//
// Buckets group the ids by key floor(d/width), in ids' order within a
// bucket. Bands sort the ids by distance and close a band at every
// ceil(len/m) boundary. Equal distances may straddle a cut: Delete
// probes every band whose [lo, hi] contains the distance, so correctness
// does not depend on ties staying together, and plain chunking makes
// every band strictly smaller than the node. When every id is
// equidistant the one band is ids in their original order.
func (t *Tree) cut(ids []int32, level int) (*node, [][]int32) {
	n := &node{}
	rest := ids
	if t.fam.ownPivot {
		pi := pivotIndex(t.opts.Seed, ids)
		n.pivotID, n.pivot, n.pivotLive = ids[pi], t.ds.Object(int(ids[pi])), true
		rest = make([]int32, 0, len(ids)-1)
		rest = append(append(rest, ids[:pi]...), ids[pi+1:]...)
	}
	pv, sp := t.pivotOf(n, level), t.ds.Space()
	all := make([]idDist, len(rest))
	fill := func(start, end int) {
		for i := start; i < end; i++ {
			all[i] = idDist{rest[i], sp.Distance(pv, t.ds.Object(int(rest[i])))}
		}
	}
	if t.tokens != nil && len(ids) >= core.ParallelNodeCutoff {
		t.tokens.ChunkedFill(len(rest), fill)
	} else {
		fill(0, len(rest))
	}
	key := func(i int) int { return int(all[i].d / t.width) }
	var opens func(i int) bool // whether all[i] starts a child
	if t.fam.bands {
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		if all[0].d == all[len(all)-1].d {
			n.children = []child{{lo: all[0].d, hi: all[0].d}}
			return n, [][]int32{rest}
		}
		target := (len(all) + t.opts.Arity - 1) / t.opts.Arity
		opens = func(i int) bool { return i%target == 0 }
	} else {
		sort.SliceStable(all, func(i, j int) bool { return key(i) < key(j) })
		opens = func(i int) bool { return i == 0 || key(i) != key(i-1) }
	}
	var groups [][]int32
	for i, e := range all {
		if opens(i) {
			c := child{lo: e.d}
			if !t.fam.bands {
				c.lo = float64(key(i)) * t.width
				c.hi = c.lo + t.width
			}
			n.children = append(n.children, c)
			groups = append(groups, nil)
		}
		if t.fam.bands {
			n.children[len(n.children)-1].hi = e.d
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], e.id)
	}
	return n, groups
}

// pivotOf returns the pivot n's children are cut by: its own (BKT) or
// the level's shared pivot.
func (t *Tree) pivotOf(n *node, level int) core.Object {
	if n.pivot != nil || len(t.pivots) == 0 {
		return n.pivot
	}
	return t.pivots[level%len(t.pivots)]
}

// Name returns the family: "BKT", "FQT", "MVPT", or "VPT" for an MVPT
// of arity 2.
func (t *Tree) Name() string {
	if t.fam.bands && t.opts.Arity == 2 {
		return "VPT"
	}
	return t.fam.name
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// queryDists computes d(q, p_i) for every level pivot, once per query
// (none for BKT, whose pivots are measured as the query reaches them).
func (t *Tree) queryDists(q core.Object) []float64 {
	qd := make([]float64, len(t.pivots))
	t.ds.Space().DistanceMany(q, t.pivots, qd)
	return qd
}

// pivotDist returns d(q, pivot of n): the level pivot's from qd, or the
// node's own, measured now.
func (t *Tree) pivotDist(n *node, level int, q core.Object, qd []float64) float64 {
	if n.pivot != nil {
		return t.ds.Space().Distance(q, n.pivot)
	}
	return qd[level%len(qd)]
}

// RangeSearch answers MRQ(q, r) depth-first, pruning children whose
// interval misses [d(q,p)−r, d(q,p)+r] (Lemma 1 on the node's pivot).
func (t *Tree) RangeSearch(q core.Object, r float64) ([]int, error) {
	qd := t.queryDists(q)
	sp := t.ds.Space()
	var res []int
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		if n.leaf() {
			for _, id := range n.ids {
				if sp.Distance(q, t.ds.Object(int(id))) <= r {
					res = append(res, int(id))
				}
			}
			return
		}
		dq := t.pivotDist(n, level, q, qd)
		if n.pivotLive && dq <= r {
			res = append(res, int(n.pivotID))
		}
		for _, c := range n.children {
			if dq+r < c.lo || dq-r > c.hi {
				continue
			}
			walk(c.n, level+1)
		}
	}
	walk(t.root, 0)
	sort.Ints(res)
	return res, nil
}

// nodeAt is a node queued for best-first kNN, with its level.
type nodeAt struct {
	n     *node
	level int
}

// KNNSearch answers MkNNQ(q, k) best-first in ascending lower-bound
// order, with the radius tightened by every verified object.
func (t *Tree) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	qd := t.queryDists(q)
	sp := t.ds.Space()
	h := core.NewKNNHeap(k)
	var pq core.MinHeap[nodeAt]
	pq.Push(0, 0, nodeAt{t.root, 0})
	for it, ok := pq.PopWithin(h.Radius()); ok; it, ok = pq.PopWithin(h.Radius()) {
		n, level := it.V.n, it.V.level
		if n.leaf() {
			for _, id := range n.ids {
				h.Push(int(id), sp.Distance(q, t.ds.Object(int(id))))
			}
			continue
		}
		dq := t.pivotDist(n, level, q, qd)
		if n.pivotLive {
			h.Push(int(n.pivotID), dq)
		}
		for _, c := range n.children {
			lb := max(core.IntervalDist(dq, c.lo, c.hi), it.LB)
			if lb <= h.Radius() {
				pq.Push(lb, 0, nodeAt{c.n, level + 1})
			}
		}
	}
	return h.Result(), nil
}

// bucket returns the position of the bucket holding distance d, or where
// it would be inserted, and whether it exists.
func (t *Tree) bucket(n *node, d float64) (int, bool) {
	lo := float64(int(d/t.width)) * t.width
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].lo >= lo })
	return i, i < len(n.children) && n.children[i].lo == lo
}

// route returns the child an object at distance d from n's pivot goes
// to: its bucket, created empty if missing; or the band containing d, or
// else the nearest one, widened to cover d.
func (t *Tree) route(n *node, d float64) *node {
	if !t.fam.bands {
		i, ok := t.bucket(n, d)
		if !ok {
			lo := float64(int(d/t.width)) * t.width
			n.children = slices.Insert(n.children, i, child{lo: lo, hi: lo + t.width, n: &node{}})
		}
		return n.children[i].n
	}
	best, bestGap := 0, math.Inf(1)
	for i, c := range n.children {
		if g := core.IntervalDist(d, c.lo, c.hi); g < bestGap {
			best, bestGap = i, g
		}
	}
	c := &n.children[best]
	if d < c.lo {
		c.lo = d
	}
	if d > c.hi {
		c.hi = d
	}
	return c.n
}

// Insert descends to the leaf the object routes to and appends it,
// splitting the leaf when it overflows.
func (t *Tree) Insert(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("%s: insert of deleted object %d", t.fam.tag(), id)
	}
	t.size++
	n, level := t.root, 0
	for !n.leaf() {
		n = t.route(n, t.ds.Space().Distance(t.pivotOf(n, level), o))
		level++
	}
	n.ids = append(n.ids, int32(id))
	if len(n.ids) <= max(2*t.opts.LeafCapacity, n.grow) || t.leafAt(len(n.ids), level) {
		return nil
	}
	// A split that separates nothing leaves the leaf as it is, to be
	// tried again once it has doubled: splitting it anyway would grow a
	// chain one node per insert (BKT) or re-sort it on every insert
	// (MVPT).
	if grown, stuck := t.split(n.ids, level); stuck {
		n.grow = 2 * len(n.ids)
	} else {
		*n = *grown
	}
	return nil
}

// Delete removes the identifier from its leaf, descending along every
// child whose interval contains the object's pivot distance; a deleted
// BKT pivot keeps routing but stops being reported.
func (t *Tree) Delete(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("%s: delete needs the object still present in the dataset (id %d)", t.fam.tag(), id)
	}
	if !t.deleteAt(t.root, 0, int32(id), o) {
		return fmt.Errorf("%s: delete of unindexed object %d", t.fam.tag(), id)
	}
	t.size--
	return nil
}

func (t *Tree) deleteAt(n *node, level int, id int32, o core.Object) bool {
	if n.leaf() {
		i := slices.Index(n.ids, id)
		if i >= 0 {
			n.ids[i] = n.ids[len(n.ids)-1]
			n.ids = n.ids[:len(n.ids)-1]
		}
		return i >= 0
	}
	if n.pivotLive && n.pivotID == id {
		n.pivotLive = false
		return true
	}
	d := t.ds.Space().Distance(t.pivotOf(n, level), o)
	cs := n.children
	if !t.fam.bands {
		i, ok := t.bucket(n, d)
		if !ok {
			return false
		}
		cs = cs[i : i+1]
	}
	for _, c := range cs {
		if d < c.lo || d > c.hi {
			continue
		}
		if t.deleteAt(c.n, level+1, id, o) {
			return true
		}
	}
	return false
}

// PageAccesses returns 0: the trees are in memory.
func (t *Tree) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (t *Tree) ResetStats() {}

// MemBytes estimates the resident size: identifiers, intervals and node
// overhead (objects live in the dataset, not the tree).
func (t *Tree) MemBytes() int64 {
	var bytes int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			bytes += int64(len(n.ids))*4 + 24
			return
		}
		bytes += 56 + int64(len(n.children))*24
		for _, c := range n.children {
			walk(c.n)
		}
	}
	walk(t.root)
	return bytes
}

// DiskBytes returns 0.
func (t *Tree) DiskBytes() int64 { return 0 }
