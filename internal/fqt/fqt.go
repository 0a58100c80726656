// Package fqt implements the Fixed Queries Tree (§4.2) and, as a bonus,
// the Fixed Queries Array (FQA [11]), both for *discrete* distance
// functions. Unlike BKT, FQT uses one pivot per tree level — the i-th
// pivot of the shared pivot set — so a root-to-leaf path spells out an
// object's distances to a prefix of the pivots, and with well-chosen
// pivots FQT is expected to beat BKT (§4.2).
package fqt

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"metricindex/internal/core"
)

// Options tunes construction.
type Options struct {
	// LeafCapacity stops splitting below this bucket size. Default 16.
	LeafCapacity int
	// MaxChildren caps fanout per node; bucket width =
	// ceil(MaxDistance/MaxChildren). Default 64.
	MaxChildren int
	// MaxDistance is the distance-domain upper bound d+. Required.
	MaxDistance float64
	// Workers parallelizes construction node-level: the per-node pivot
	// distances and sibling subtrees above a size cutoff spread over a
	// pool of Workers goroutines shared by the whole build (a token
	// scheme bounding total concurrency). 0 or 1 builds sequentially,
	// negative uses GOMAXPROCS. The tree is identical either way — FQT
	// construction has no randomness, only the level pivots.
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

// FQT is the fixed-queries tree index.
type FQT struct {
	ds        *core.Dataset
	opts      Options
	pivotIDs  []int
	pivotVals []core.Object
	width     float64
	root      *node
	size      int
	// tokens bounds build parallelism to Workers total goroutines across
	// the whole recursion; nil builds sequentially.
	tokens *core.TokenPool
}

// node is a leaf (bucket of ids) or an internal node whose children are
// keyed by the distance bucket to the pivot of the node's level.
type node struct {
	ids      []int32       // leaf bucket
	children map[int]*node // internal
}

func (n *node) leaf() bool { return n.children == nil }

// New builds an FQT over all live objects using the shared pivot set (one
// pivot per level, in order). The metric must be discrete.
func New(ds *core.Dataset, pivots []int, opts Options) (*FQT, error) {
	if !ds.Space().Metric().Discrete() {
		return nil, fmt.Errorf("fqt: metric %q is not discrete", ds.Space().Metric().Name())
	}
	if len(pivots) == 0 {
		return nil, fmt.Errorf("fqt: no pivots")
	}
	opts = opts.withDefaults()
	t := &FQT{
		ds:       ds,
		opts:     opts,
		pivotIDs: append([]int(nil), pivots...),
		width:    bucketWidth(opts.MaxDistance, opts.MaxChildren),
		tokens:   core.NewTokenPool(opts.Workers),
	}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("fqt: pivot %d is not a live object", p)
		}
		t.pivotVals = append(t.pivotVals, v)
	}
	ids := make([]int32, 0, ds.Count())
	for _, id := range ds.LiveIDs() {
		ids = append(ids, int32(id))
	}
	t.size = len(ids)
	t.root = t.build(ids, 0)
	return t, nil
}

func bucketWidth(maxD float64, maxChildren int) float64 {
	w := math.Ceil(maxD / float64(maxChildren))
	if w < 1 {
		w = 1
	}
	return w
}

// build partitions ids by distance to the level pivot; recursion stops at
// the leaf capacity or when the pivots are exhausted (the tree height is
// the number of pivots, §4.2). With Workers > 1 the per-node distances
// and sibling subtrees above core.ParallelNodeCutoff spread over the shared token
// pool — disjoint nodes and slots, so the tree is identical to the
// sequential build.
func (t *FQT) build(ids []int32, level int) *node {
	if len(ids) <= t.opts.LeafCapacity || level >= len(t.pivotVals) {
		return &node{ids: ids}
	}
	sp := t.ds.Space()
	pv := t.pivotVals[level]
	par := t.tokens != nil && len(ids) >= core.ParallelNodeCutoff
	// Bucket index per object: the distance fill fans out over the token
	// pool; the aggregation that follows is sequential over ids' order, so
	// bucket contents are order-identical either way.
	bs := make([]int, len(ids))
	fill := func(start, end int) {
		for i := start; i < end; i++ {
			bs[i] = int(sp.Distance(pv, t.ds.Object(int(ids[i]))) / t.width)
		}
	}
	if par {
		t.tokens.ChunkedFill(len(ids), fill)
	} else {
		fill(0, len(ids))
	}
	buckets := make(map[int][]int32)
	for i, id := range ids {
		buckets[bs[i]] = append(buckets[bs[i]], id)
	}
	n := &node{children: make(map[int]*node, len(buckets))}
	var wg sync.WaitGroup
	for b, bucket := range buckets {
		child := &node{}
		n.children[b] = child
		if !par || !t.tokens.TryGo(&wg, func() { *child = *t.build(bucket, level+1) }) {
			*child = *t.build(bucket, level+1)
		}
	}
	wg.Wait()
	return n
}

// Name returns "FQT".
func (t *FQT) Name() string { return "FQT" }

// Len returns the number of indexed objects.
func (t *FQT) Len() int { return t.size }

// queryDists computes d(q, p_i) for every level pivot, once per query.
func (t *FQT) queryDists(q core.Object) []float64 {
	qd := make([]float64, len(t.pivotVals))
	sp := t.ds.Space()
	for i, p := range t.pivotVals {
		qd[i] = sp.Distance(q, p)
	}
	return qd
}

// RangeSearch answers MRQ(q, r) depth-first, pruning buckets whose
// distance range misses [d(q,p_level)−r, d(q,p_level)+r].
func (t *FQT) RangeSearch(q core.Object, r float64) ([]int, error) {
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
		for b, child := range n.children {
			lo := float64(b) * t.width
			hi := lo + t.width
			if qd[level]+r < lo || qd[level]-r > hi {
				continue
			}
			walk(child, level+1)
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

// KNNSearch answers MkNNQ(q, k) best-first in ascending lower-bound order.
func (t *FQT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
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
		for b, child := range n.children {
			lo := float64(b) * t.width
			hi := lo + t.width
			lb := core.IntervalDist(qd[level], lo, hi)
			if lb < it.LB {
				lb = it.LB
			}
			if lb <= h.Radius() {
				pq.Push(lb, 0, nodeAt{child, level + 1})
			}
		}
	}
	return h.Result(), nil
}

// Insert descends by bucket, appending to (and possibly splitting) a leaf.
func (t *FQT) Insert(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("fqt: insert of deleted object %d", id)
	}
	t.size++
	t.insertAt(t.root, 0, id, o)
	return nil
}

func (t *FQT) insertAt(n *node, level int, id int, o core.Object) {
	if n.leaf() {
		n.ids = append(n.ids, int32(id))
		if len(n.ids) > 2*t.opts.LeafCapacity && level < len(t.pivotVals) {
			rebuilt := t.build(n.ids, level)
			*n = *rebuilt
		}
		return
	}
	b := int(t.ds.Space().Distance(t.pivotVals[level], o) / t.width)
	child, ok := n.children[b]
	if !ok {
		n.children[b] = &node{ids: []int32{int32(id)}}
		return
	}
	t.insertAt(child, level+1, id, o)
}

// Delete descends by bucket and removes the identifier.
func (t *FQT) Delete(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("fqt: delete needs the object still present in the dataset (id %d)", id)
	}
	if !t.deleteAt(t.root, 0, id, o) {
		return fmt.Errorf("fqt: delete of unindexed object %d", id)
	}
	t.size--
	return nil
}

func (t *FQT) deleteAt(n *node, level int, id int, o core.Object) bool {
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
	b := int(t.ds.Space().Distance(t.pivotVals[level], o) / t.width)
	child, ok := n.children[b]
	if !ok {
		return false
	}
	return t.deleteAt(child, level+1, id, o)
}

// PageAccesses returns 0: FQT is an in-memory index.
func (t *FQT) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (t *FQT) ResetStats() {}

// MemBytes estimates the resident size (identifiers plus node overhead).
func (t *FQT) MemBytes() int64 {
	var bytes int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			bytes += int64(len(n.ids))*4 + 24
			return
		}
		bytes += 48
		for _, c := range n.children {
			bytes += 16
			walk(c)
		}
	}
	walk(t.root)
	return bytes
}

// DiskBytes returns 0.
func (t *FQT) DiskBytes() int64 { return 0 }
