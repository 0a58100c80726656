// Package mvpt implements the Vantage-Point Tree (VPT [29]) and its m-ary
// generalization MVPT [5] of paper §4.3: the balanced pivot tree for
// continuous distance functions. Each level splits its objects by m−1
// distance quantiles ("medium values") to the level's pivot; per the
// paper's methodology, all nodes at one level share the same pivot from
// the shared pivot set. Only the cut values and child distance ranges are
// stored — not full pre-computed distance vectors — which is why the tree
// family spends more compdists but less memory than the tables (Table 4,
// Figs 16-17). The paper's default arity is m = 5; m = 2 yields VPT.
package mvpt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"metricindex/internal/core"
)

// Options tunes construction.
type Options struct {
	// Arity is the fanout m (>= 2). The paper uses 5. Default 5.
	Arity int
	// LeafCapacity stops splitting below this bucket size. Default 16.
	LeafCapacity int
	// Workers parallelizes construction node-level: the per-node pivot
	// distances and sibling subtrees spread over a pool of Workers
	// goroutines shared by the whole build (a token scheme, so total
	// concurrency stays bounded however wide the tree fans out). 0 or 1
	// builds sequentially, negative uses GOMAXPROCS. The tree is
	// identical either way — the same bands, cut values, and id order.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Arity < 2 {
		o.Arity = 5
	}
	if o.LeafCapacity <= 0 {
		o.LeafCapacity = 16
	}
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// MVPT is the multi-vantage-point tree index.
type MVPT struct {
	ds        *core.Dataset
	opts      Options
	pivotIDs  []int
	pivotVals []core.Object
	root      *node
	size      int
	// tokens bounds build parallelism to Workers total goroutines across
	// the whole recursion (core.TokenPool's try-else-inline discipline);
	// nil builds sequentially.
	tokens *core.TokenPool
}

// node is a leaf bucket or an internal node with children split by cut
// values on the level pivot. Child distance ranges [lo, hi] to the level
// pivot are kept for pruning; they stay conservative across deletions.
type node struct {
	ids      []int32 // leaf
	children []*node // internal
	lo, hi   []float64
}

func (n *node) leaf() bool { return n.children == nil }

// New builds an MVPT over all live objects using the shared pivots, one
// per level (cycling if the tree outgrows the pivot set).
func New(ds *core.Dataset, pivots []int, opts Options) (*MVPT, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("mvpt: no pivots")
	}
	opts = opts.withDefaults()
	t := &MVPT{ds: ds, opts: opts, pivotIDs: append([]int(nil), pivots...)}
	t.tokens = core.NewTokenPool(opts.Workers)
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("mvpt: pivot %d is not a live object", p)
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

// pivotAt returns the pivot value for a tree level.
func (t *MVPT) pivotAt(level int) core.Object {
	return t.pivotVals[level%len(t.pivotVals)]
}

// build splits ids into m quantile bands of distance to the level pivot.
// With Workers > 1 the per-node distances and sibling subtrees above
// core.ParallelNodeCutoff spread over the shared token pool — disjoint nodes and
// slots, so the tree is identical to the sequential build (§6.2's
// object-independence, applied node-level).
func (t *MVPT) build(ids []int32, level int) *node {
	if len(ids) <= t.opts.LeafCapacity {
		return &node{ids: ids}
	}
	sp := t.ds.Space()
	pv := t.pivotAt(level)
	type od struct {
		id int32
		d  float64
	}
	par := t.tokens != nil && len(ids) >= core.ParallelNodeCutoff
	all := make([]od, len(ids))
	fill := func(start, end int) {
		for i := start; i < end; i++ {
			all[i] = od{ids[i], sp.Distance(pv, t.ds.Object(int(ids[i])))}
		}
	}
	if par {
		t.tokens.ChunkedFill(len(ids), fill)
	} else {
		fill(0, len(ids))
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	if all[0].d == all[len(all)-1].d {
		// All objects equidistant from the pivot: splitting cannot make
		// progress at this level; fall back to a (possibly oversized) leaf.
		return &node{ids: ids}
	}
	m := t.opts.Arity
	n := &node{}
	// Walk the sorted list and close a band at every target-size boundary.
	// Equal distances may straddle a cut: Delete probes every band whose
	// [lo, hi] range contains the distance, so correctness does not depend
	// on ties staying together, and plain chunking guarantees every band
	// is strictly smaller than the node (no degenerate recursion).
	target := (len(all) + m - 1) / m
	var bands [][]int32
	for bandStart := 0; bandStart < len(all); {
		end := bandStart + target
		if end >= len(all) {
			end = len(all)
		}
		bandIDs := make([]int32, end-bandStart)
		for i := bandStart; i < end; i++ {
			bandIDs[i-bandStart] = all[i].id
		}
		bands = append(bands, bandIDs)
		n.lo = append(n.lo, all[bandStart].d)
		n.hi = append(n.hi, all[end-1].d)
		bandStart = end
	}
	n.children = make([]*node, len(bands))
	var wg sync.WaitGroup
	for b := range bands {
		if !par || !t.tokens.TryGo(&wg, func() { n.children[b] = t.build(bands[b], level+1) }) {
			n.children[b] = t.build(bands[b], level+1)
		}
	}
	wg.Wait()
	return n
}

// Name returns "MVPT" for m > 2 and "VPT" for the binary tree.
func (t *MVPT) Name() string {
	if t.opts.Arity == 2 {
		return "VPT"
	}
	return "MVPT"
}

// Len returns the number of indexed objects.
func (t *MVPT) Len() int { return t.size }

// queryDists computes d(q, p_i) once per pivot per query.
func (t *MVPT) queryDists(q core.Object) []float64 {
	qd := make([]float64, len(t.pivotVals))
	sp := t.ds.Space()
	for i, p := range t.pivotVals {
		qd[i] = sp.Distance(q, p)
	}
	return qd
}

// RangeSearch answers MRQ(q, r) depth-first, pruning children whose
// distance band misses [d(q,p)−r, d(q,p)+r].
func (t *MVPT) RangeSearch(q core.Object, r float64) ([]int, error) {
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
		dq := qd[level%len(qd)]
		for c, child := range n.children {
			if dq+r < n.lo[c] || dq-r > n.hi[c] {
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

// KNNSearch answers MkNNQ(q, k) best-first in ascending lower-bound order
// with radius tightening.
func (t *MVPT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
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
		dq := qd[level%len(qd)]
		for c, child := range n.children {
			lb := core.IntervalDist(dq, n.lo[c], n.hi[c])
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

// Insert descends into the child whose band contains (or is nearest to)
// the object's pivot distance, widening bands along the path.
func (t *MVPT) Insert(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("mvpt: insert of deleted object %d", id)
	}
	t.size++
	t.insertAt(t.root, 0, id, o)
	return nil
}

func (t *MVPT) insertAt(n *node, level int, id int, o core.Object) {
	if n.leaf() {
		n.ids = append(n.ids, int32(id))
		if len(n.ids) > 2*t.opts.LeafCapacity {
			rebuilt := t.build(n.ids, level)
			*n = *rebuilt
		}
		return
	}
	d := t.ds.Space().Distance(t.pivotAt(level), o)
	c := t.childFor(n, d)
	if d < n.lo[c] {
		n.lo[c] = d
	}
	if d > n.hi[c] {
		n.hi[c] = d
	}
	t.insertAt(n.children[c], level+1, id, o)
}

// childFor picks the band containing d, or the nearest band when d falls
// in a gap or beyond the extremes.
func (t *MVPT) childFor(n *node, d float64) int {
	for c := range n.children {
		if d >= n.lo[c] && d <= n.hi[c] {
			return c
		}
	}
	best, bestGap := 0, core.IntervalDist(d, n.lo[0], n.hi[0])
	for c := 1; c < len(n.children); c++ {
		if g := core.IntervalDist(d, n.lo[c], n.hi[c]); g < bestGap {
			best, bestGap = c, g
		}
	}
	return best
}

// Delete descends along every band that could contain the object's pivot
// distance and removes the identifier.
func (t *MVPT) Delete(id int) error {
	o := t.ds.Object(id)
	if o == nil {
		return fmt.Errorf("mvpt: delete needs the object still present in the dataset (id %d)", id)
	}
	if !t.deleteAt(t.root, 0, id, o) {
		return fmt.Errorf("mvpt: delete of unindexed object %d", id)
	}
	t.size--
	return nil
}

func (t *MVPT) deleteAt(n *node, level int, id int, o core.Object) bool {
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
	d := t.ds.Space().Distance(t.pivotAt(level), o)
	for c, child := range n.children {
		if d < n.lo[c] || d > n.hi[c] {
			continue
		}
		if t.deleteAt(child, level+1, id, o) {
			return true
		}
	}
	return false
}

// PageAccesses returns 0: MVPT is an in-memory index.
func (t *MVPT) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (t *MVPT) ResetStats() {}

// MemBytes estimates the resident size: cut values and identifiers only,
// the smallest footprint of the index families (Table 4).
func (t *MVPT) MemBytes() int64 {
	var bytes int64
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf() {
			bytes += int64(len(n.ids))*4 + 24
			return
		}
		bytes += int64(len(n.children))*(16+8) + 24
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return bytes
}

// DiskBytes returns 0.
func (t *MVPT) DiskBytes() int64 { return 0 }
