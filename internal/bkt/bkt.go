// Package bkt implements the Burkhard-Keller Tree (§4.1), the classic
// pivot-based tree for *discrete* distance functions: every internal node
// holds a pivot, and objects at distance i from the pivot descend into the
// i-th subtree. Pivots are selected at random per subtree (the paper keeps
// this randomness; using the shared pivot set per level instead would turn
// BKT into FQT). The random choice is derived by hashing the subtree's own
// identifiers with the seed, so it depends only on the subtree's content —
// never on the order subtrees are built in — which makes construction
// deterministic and lets sibling subtrees build concurrently with an
// identical result.
//
// Following §4.1, only object identifiers live in the tree; object values
// stay in the dataset table. To avoid empty subtrees under large distance
// domains, each child covers a fixed-width range of distance values, with
// the range stored alongside the child.
package bkt

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"metricindex/internal/core"
)

// Options tunes construction.
type Options struct {
	// LeafCapacity is the bucket size below which a subtree stops
	// splitting. Default 16.
	LeafCapacity int
	// MaxChildren caps a node's fanout; the bucket width is chosen as
	// ceil(domain/MaxChildren). Default 64.
	MaxChildren int
	// Seed drives random pivot selection.
	Seed int64
	// MaxDistance is the distance-domain upper bound (d+), used to size
	// buckets. Required.
	MaxDistance float64
	// Workers parallelizes construction node-level: the per-node pivot
	// distances and sibling subtrees above a size cutoff spread over a
	// pool of Workers goroutines shared by the whole build (a token
	// scheme, so total concurrency stays bounded however wide the tree
	// fans out). 0 or 1 builds sequentially, negative uses GOMAXPROCS.
	// The tree is identical either way.
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
	return o
}

// BKT is the Burkhard-Keller tree index.
type BKT struct {
	ds   *core.Dataset
	opts Options
	root *node
	size int
	// tokens bounds build parallelism to Workers total goroutines across
	// the whole recursion; nil builds sequentially.
	tokens *core.TokenPool
}

// node is either a leaf (ids != nil precisely when it has no pivot) or an
// internal node with a pivot and bucketed children.
type node struct {
	// Leaf state.
	ids []int32
	// Internal state.
	pivotID   int32
	pivotVal  core.Object
	pivotLive bool // false once the pivot object was deleted from the dataset
	width     float64
	children  map[int]*node
}

func (n *node) leaf() bool { return n.children == nil && n.pivotVal == nil }

// New builds a BKT over all live objects. The metric must be discrete.
func New(ds *core.Dataset, opts Options) (*BKT, error) {
	if !ds.Space().Metric().Discrete() {
		return nil, fmt.Errorf("bkt: metric %q is not discrete", ds.Space().Metric().Name())
	}
	opts = opts.withDefaults()
	t := &BKT{ds: ds, opts: opts, tokens: core.NewTokenPool(opts.Workers)}
	ids := make([]int32, 0, ds.Count())
	for _, id := range ds.LiveIDs() {
		ids = append(ids, int32(id))
	}
	t.size = len(ids)
	t.root = t.build(ids)
	return t, nil
}

// pivotIndex picks the pivot as the identifier with the minimum seeded
// hash (min-hash over the subtree's id *set*, ties to the smaller id).
// The chosen pivot id is a function of the set alone — independent of
// slice ordering — so concurrent sibling builds, and leaf rebuilds
// whose ids arrived in insertion order, pick the same pivot a
// sequential fresh build over the same ids would. The returned value is
// that pivot's position in ids.
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

// build recursively partitions ids by distance to a randomly chosen pivot.
// With Workers > 1 the per-node pivot distances and sibling subtrees above
// core.ParallelNodeCutoff spread over the shared token pool — disjoint nodes and
// slots, so the tree is identical to the sequential build.
func (t *BKT) build(ids []int32) *node {
	if len(ids) <= t.opts.LeafCapacity {
		return &node{ids: ids}
	}
	// Random pivot from the subtree's own objects (§4.1).
	pi := pivotIndex(t.opts.Seed, ids)
	pid := ids[pi]
	pv := t.ds.Object(int(pid))
	rest := make([]int32, 0, len(ids)-1)
	rest = append(rest, ids[:pi]...)
	rest = append(rest, ids[pi+1:]...)

	n := &node{
		pivotID:   pid,
		pivotVal:  pv,
		pivotLive: true,
		width:     bucketWidth(t.opts.MaxDistance, t.opts.MaxChildren),
		children:  make(map[int]*node),
	}
	sp := t.ds.Space()
	par := t.tokens != nil && len(ids) >= core.ParallelNodeCutoff
	// Bucket index per object: the distance fill fans out over the token
	// pool; the bucket aggregation that follows is sequential over rest's
	// order, so bucket contents are order-identical either way.
	bs := make([]int, len(rest))
	fill := func(start, end int) {
		for i := start; i < end; i++ {
			bs[i] = int(sp.Distance(pv, t.ds.Object(int(rest[i]))) / n.width)
		}
	}
	if par {
		t.tokens.ChunkedFill(len(rest), fill)
	} else {
		fill(0, len(rest))
	}
	buckets := make(map[int][]int32)
	allSame := true
	for i, id := range rest {
		if bs[i] != bs[0] {
			allSame = false
		}
		buckets[bs[i]] = append(buckets[bs[i]], id)
	}
	if allSame && len(rest) > t.opts.LeafCapacity {
		// Degenerate split (e.g. many duplicates): stop here to guarantee
		// termination; the single child becomes a leaf.
		n.children[bs[0]] = &node{ids: buckets[bs[0]]}
		return n
	}
	var wg sync.WaitGroup
	for b, bucket := range buckets {
		child := &node{}
		n.children[b] = child
		if !par || !t.tokens.TryGo(&wg, func() { *child = *t.build(bucket) }) {
			*child = *t.build(bucket)
		}
	}
	wg.Wait()
	return n
}

func bucketWidth(maxD float64, maxChildren int) float64 {
	w := math.Ceil(maxD / float64(maxChildren))
	if w < 1 {
		w = 1
	}
	return w
}

// Name returns "BKT".
func (t *BKT) Name() string { return "BKT" }

// Len returns the number of indexed objects.
func (t *BKT) Len() int { return t.size }

// RangeSearch answers MRQ(q, r) by depth-first traversal, pruning child
// buckets whose distance range cannot intersect [d(q,p)−r, d(q,p)+r]
// (Lemma 1 restricted to the node's pivot).
func (t *BKT) RangeSearch(q core.Object, r float64) ([]int, error) {
	var res []int
	sp := t.ds.Space()
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			for _, id := range n.ids {
				if sp.Distance(q, t.ds.Object(int(id))) <= r {
					res = append(res, int(id))
				}
			}
			return
		}
		dq := sp.Distance(q, n.pivotVal)
		if n.pivotLive && dq <= r {
			res = append(res, int(n.pivotID))
		}
		for b, child := range n.children {
			lo := float64(b) * n.width
			hi := lo + n.width
			if dq+r < lo || dq-r > hi {
				continue
			}
			walk(child)
		}
	}
	walk(t.root)
	sort.Ints(res)
	return res, nil
}

// KNNSearch answers MkNNQ(q, k) by best-first traversal in ascending
// lower-bound order, with the radius tightened by verified objects (§4.1).
func (t *BKT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	h := core.NewKNNHeap(k)
	sp := t.ds.Space()
	var pq core.MinHeap[*node]
	pq.Push(0, 0, t.root)
	for it, ok := pq.PopWithin(h.Radius()); ok; it, ok = pq.PopWithin(h.Radius()) {
		n := it.V
		if n.leaf() {
			for _, id := range n.ids {
				h.Push(int(id), sp.Distance(q, t.ds.Object(int(id))))
			}
			continue
		}
		dq := sp.Distance(q, n.pivotVal)
		if n.pivotLive {
			h.Push(int(n.pivotID), dq)
		}
		for b, child := range n.children {
			lo := float64(b) * n.width
			hi := lo + n.width
			lb := core.IntervalDist(dq, lo, hi)
			if lb < it.LB {
				lb = it.LB
			}
			if lb <= h.Radius() {
				pq.Push(lb, 0, child)
			}
		}
	}
	return h.Result(), nil
}

// Insert descends by bucket and appends to a leaf, splitting it when it
// overflows.
func (t *BKT) Insert(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("bkt: insert of deleted object %d", id)
	}
	t.size++
	t.insertAt(t.root, id, o)
	return nil
}

func (t *BKT) insertAt(n *node, id int, o core.Object) {
	if n.leaf() {
		n.ids = append(n.ids, int32(id))
		if len(n.ids) > 2*t.opts.LeafCapacity {
			rebuilt := t.build(n.ids)
			*n = *rebuilt
		}
		return
	}
	b := int(t.ds.Space().Distance(n.pivotVal, o) / n.width)
	child, ok := n.children[b]
	if !ok {
		n.children[b] = &node{ids: []int32{int32(id)}}
		return
	}
	t.insertAt(child, id, o)
}

// Delete descends by bucket (computing the object's pivot distances) and
// removes the identifier; a deleted pivot keeps routing but stops being
// reported.
func (t *BKT) Delete(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("bkt: delete needs the object still present in the dataset (id %d)", id)
	}
	if !t.deleteAt(t.root, id, o) {
		return fmt.Errorf("bkt: delete of unindexed object %d", id)
	}
	t.size--
	return nil
}

func (t *BKT) deleteAt(n *node, id int, o core.Object) bool {
	if n.leaf() {
		for i, x := range n.ids {
			if int(x) == id {
				n.ids[i] = n.ids[len(n.ids)-1]
				n.ids = n.ids[:len(n.ids)-1]
				return true
			}
		}
		return false
	}
	if n.pivotLive && int(n.pivotID) == id {
		n.pivotLive = false
		return true
	}
	b := int(t.ds.Space().Distance(n.pivotVal, o) / n.width)
	child, ok := n.children[b]
	if !ok {
		return false
	}
	return t.deleteAt(child, id, o)
}

// PageAccesses returns 0: BKT is an in-memory index.
func (t *BKT) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (t *BKT) ResetStats() {}

// MemBytes estimates the tree's resident size: node overhead plus stored
// identifiers (objects live in the dataset, not the tree).
func (t *BKT) MemBytes() int64 {
	var bytes int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			bytes += int64(len(n.ids))*4 + 24
			return
		}
		bytes += 64 // pivot id, width, map header
		for _, c := range n.children {
			bytes += 16
			walk(c)
		}
	}
	walk(t.root)
	return bytes
}

// DiskBytes returns 0.
func (t *BKT) DiskBytes() int64 { return 0 }
