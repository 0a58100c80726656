// Package mindex implements the M-index of [23] (§5.3) and the paper's
// improved M-index*.
//
// The M-index generalizes iDistance to metric spaces: objects are
// partitioned by generalized hyperplane partitioning (each object belongs
// to its nearest pivot's cluster) and mapped to the real key
//
//	key(o) = slot(cluster) · d⁺ + d(p_cluster, o)
//
// indexed by a B+-tree; the objects (with all their pre-computed pivot
// distances) live in a RAF. Clusters exceeding maxnum objects split
// dynamically using the next-nearest pivot (Fig 12(d)). Range queries
// prune clusters with double-pivot filtering (Lemma 3) and candidates with
// pivot filtering (Lemma 1); the plain M-index answers MkNNQ by repeated
// range queries with growing radius.
//
// M-index* (the paper's improvement) additionally stores the pivot-space
// MBB of every cluster, enabling Lemma 1 pruning of whole clusters, a
// single best-first MkNNQ traversal, and Lemma 4 validation of range
// candidates — the behaviour Fig 15 compares.
package mindex

import (
	"fmt"
	"math"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/store"
)

// DefaultMaxNum is the paper's cluster split threshold (§5.3).
const DefaultMaxNum = 1600

// Options tunes construction.
type Options struct {
	// Star enables the M-index* additions (MBBs, best-first kNN,
	// validation).
	Star bool
	// MaxNum is the cluster split threshold (DefaultMaxNum when 0).
	MaxNum int
	// MaxDistance is d⁺, the key-space stride. Required.
	MaxDistance float64
}

// cluster is a node of the (in-memory) cluster tree. A leaf owns a key
// slot in the B+-tree; an internal cluster has children indexed by the
// next-nearest pivot index, nil where no object has gone yet — walked in
// pivot order, so every traversal, and with it compdists and page
// accesses, is the same on every run.
type cluster struct {
	pivotIdx int // defining pivot of this cluster (-1 at the root)
	depth    int
	// internal
	children []*cluster
	// leaf
	slot   int
	count  int
	minD   float64 // min/max of d(p_pivotIdx, o) over members
	maxD   float64
	mbb    core.MBB // M-index*: bounds over all pivots
	usable []int    // pivot indexes available for further splits
}

func (c *cluster) leaf() bool { return c.children == nil }

// MIndex is the M-index / M-index* handle.
type MIndex struct {
	ds        *core.Dataset
	pager     *store.Pager
	opts      Options
	pivotIDs  []int
	pivotVals []core.Object
	tree      *bptree.Tree
	raf       *store.RAF
	root      *cluster
	nextSlot  int
	size      int
}

// New builds the index over all live objects.
func New(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*MIndex, error) {
	if len(pivots) < 2 {
		return nil, fmt.Errorf("mindex: generalized hyperplane partitioning needs >= 2 pivots, got %d", len(pivots))
	}
	if opts.MaxDistance <= 0 {
		return nil, fmt.Errorf("mindex: MaxDistance (d+) must be positive")
	}
	if opts.MaxNum <= 0 {
		opts.MaxNum = DefaultMaxNum
	}
	m := &MIndex{
		ds:       ds,
		pager:    pager,
		opts:     opts,
		pivotIDs: append([]int(nil), pivots...),
		tree:     bptree.New(pager, nil),
		raf:      store.NewRAF(pager),
	}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("mindex: pivot %d is not a live object", p)
		}
		m.pivotVals = append(m.pivotVals, v)
	}
	l := len(pivots)
	m.root = &cluster{pivotIdx: -1, depth: 0, children: make([]*cluster, l)}
	for i := 0; i < l; i++ {
		m.root.children[i] = m.newLeaf(i, 1, otherPivots(l, []int{i}))
	}
	for _, id := range ds.LiveIDs() {
		if err := m.Insert(id); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func otherPivots(l int, used []int) []int {
	inUse := make(map[int]bool, len(used))
	for _, u := range used {
		inUse[u] = true
	}
	var out []int
	for i := 0; i < l; i++ {
		if !inUse[i] {
			out = append(out, i)
		}
	}
	return out
}

func (m *MIndex) newLeaf(pivotIdx, depth int, usable []int) *cluster {
	c := &cluster{
		pivotIdx: pivotIdx,
		depth:    depth,
		slot:     m.nextSlot,
		minD:     math.Inf(1),
		maxD:     math.Inf(-1),
		mbb:      core.NewMBB(len(m.pivotVals)),
		usable:   usable,
	}
	m.nextSlot++
	return c
}

// Name returns "M-index" or "M-index*".
func (m *MIndex) Name() string {
	if m.opts.Star {
		return "M-index*"
	}
	return "M-index"
}

// Len returns the number of indexed objects.
func (m *MIndex) Len() int { return m.size }

// queryDists computes d(q, p_i) for all pivots.
func (m *MIndex) queryDists(q core.Object) []float64 {
	sp := m.ds.Space()
	qd := make([]float64, len(m.pivotVals))
	for i, p := range m.pivotVals {
		qd[i] = sp.Distance(q, p)
	}
	return qd
}

// key maps (slot, pivot distance) to the B+-tree key.
func (m *MIndex) key(slot int, d float64) uint64 {
	return bptree.KeyFromFloat(float64(slot)*m.opts.MaxDistance + d)
}

// bandEnd is the largest key inside a slot's band: one ulp below the next
// slot's origin, so band scans never leak into the neighbouring cluster.
func (m *MIndex) bandEnd(slot int) uint64 {
	return bptree.KeyFromFloat(float64(slot+1)*m.opts.MaxDistance) - 1
}

// rafPayload serializes the pre-computed distances followed by the object.
func (m *MIndex) rafPayload(id int, dv []float64) []byte {
	buf := store.EncodeFloats(nil, dv)
	return store.EncodeObject(buf, m.ds.Object(id))
}

// loadCandidate reads a RAF record back into (distances, object).
func (m *MIndex) loadCandidate(id int) ([]float64, core.Object, error) {
	buf, err := m.raf.Read(id)
	if err != nil {
		return nil, nil, err
	}
	dv, n, err := store.DecodeFloats(buf, len(m.pivotVals))
	if err != nil {
		return nil, nil, err
	}
	o, _, err := store.DecodeObject(buf[n:])
	if err != nil {
		return nil, nil, err
	}
	return dv, o, nil
}

// leafFor descends the cluster tree for an object's distance vector,
// returning the leaf cluster.
func (m *MIndex) leafFor(dv []float64) *cluster {
	c := m.root
	used := []int{}
	for !c.leaf() {
		// Nearest pivot among those not used on this path.
		best, bestD := -1, math.Inf(1)
		for i := range m.pivotVals {
			if contains(used, i) {
				continue
			}
			if dv[i] < bestD {
				best, bestD = i, dv[i]
			}
		}
		child := c.children[best]
		if child == nil {
			child = m.newLeaf(best, c.depth+1, otherPivots(len(m.pivotVals), append(append([]int{}, used...), best)))
			c.children[best] = child
		}
		used = append(used, best)
		c = child
	}
	return c
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Insert computes the object's pivot distances, stores the RAF record,
// and keys it into its cluster's B+-tree band, splitting the cluster if
// it exceeds maxnum (Fig 12(d)).
func (m *MIndex) Insert(id int) error {
	o := m.ds.Object(id)
	if o == nil {
		return fmt.Errorf("mindex: insert of deleted object %d", id)
	}
	sp := m.ds.Space()
	dv := make([]float64, len(m.pivotVals))
	for i, p := range m.pivotVals {
		dv[i] = sp.Distance(o, p)
	}
	if _, err := m.raf.Append(id, m.rafPayload(id, dv)); err != nil {
		return err
	}
	if err := m.place(id, dv); err != nil {
		return err
	}
	m.size++
	return nil
}

// place inserts into the cluster tree and B+-tree (no RAF write; used by
// both Insert and split redistribution).
func (m *MIndex) place(id int, dv []float64) error {
	c := m.leafFor(dv)
	d := dv[c.pivotIdx]
	if err := m.tree.Insert(m.key(c.slot, d), uint64(id)); err != nil {
		return err
	}
	c.count++
	if d < c.minD {
		c.minD = d
	}
	if d > c.maxD {
		c.maxD = d
	}
	c.mbb.Extend(dv)
	if c.count > m.opts.MaxNum && len(c.usable) > 0 {
		return m.split(c)
	}
	return nil
}

// split turns a leaf cluster into an internal node, redistributing its
// members into sub-clusters by their next-nearest pivot.
func (m *MIndex) split(c *cluster) error {
	// Collect member ids from the B+-tree band (bandEnd stays strictly
	// below the next slot's first key).
	lo := m.key(c.slot, 0)
	hi := m.bandEnd(c.slot)
	type rec struct {
		key uint64
		id  int
	}
	var members []rec
	if err := m.tree.RangeScan(lo, hi, func(k, v uint64) bool {
		members = append(members, rec{k, int(v)})
		return true
	}); err != nil {
		return err
	}
	c.children = make([]*cluster, len(m.pivotVals))
	for _, r := range members {
		dvec, _, err := m.loadCandidate(r.id)
		if err != nil {
			return err
		}
		if err := m.tree.Delete(r.key, uint64(r.id)); err != nil {
			return err
		}
		if err := m.place(r.id, dvec); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the object from its cluster band and the RAF.
func (m *MIndex) Delete(id int) error {
	o := m.ds.Object(id)
	if o == nil {
		return fmt.Errorf("mindex: delete needs the object still present in the dataset (id %d)", id)
	}
	dv, _, err := m.loadCandidate(id)
	if err != nil {
		return fmt.Errorf("mindex: delete of unindexed object %d: %w", id, err)
	}
	c := m.leafFor(dv)
	if err := m.tree.Delete(m.key(c.slot, dv[c.pivotIdx]), uint64(id)); err != nil {
		return err
	}
	c.count--
	m.size--
	return m.raf.Delete(id)
}

// PageAccesses reports the pager's accesses (B+-tree + RAF).
func (m *MIndex) PageAccesses() int64 { return m.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (m *MIndex) ResetStats() { m.pager.ResetStats() }

// MemBytes reports the in-memory cluster tree footprint.
func (m *MIndex) MemBytes() int64 {
	var bytes int64
	var walk func(c *cluster)
	walk = func(c *cluster) {
		if c.leaf() {
			bytes += 64 + int64(len(m.pivotVals))*16
			return
		}
		bytes += 48
		for _, ch := range c.children {
			if ch != nil {
				walk(ch)
			}
		}
	}
	walk(m.root)
	return bytes
}

// DiskBytes reports the B+-tree + RAF footprint.
func (m *MIndex) DiskBytes() int64 { return m.pager.DiskBytes() }
