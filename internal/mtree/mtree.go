// Package mtree implements the paged region tree behind the disk trees of
// §5: the M-tree of [13], the PM-tree of [26] (§5.1) and the R-tree of
// the OmniR-tree (§5.2), as two families of one tree over the simulated
// page store.
//
// An entry's region is an optional ball — routing object, covering
// radius, distance to the parent's routing object — plus an optional box
// in the pivot space of l shared pivots; a leaf entry carries its object
// id and its point ⟨d(o,p₁),…,d(o,p_l)⟩. The two families:
//
//   - The M-tree family keeps balls, and leaves hold their objects inline —
//     the design property the paper repeatedly calls out: it forces large
//     pages for high-dimensional data and inflates storage (Table 4) but
//     saves a separate object file. With l = 0 it is the plain M-tree CPT
//     (§3.3) clusters its objects with; with l > 0 every region also has a
//     box (the PM-tree's hyper-rings), pruned by Lemma 1 on the box and
//     Lemma 2 on the ball plus the classic parent-distance filter.
//   - The R-tree family keeps the box alone (the MBB of its points), and
//     the objects live in a random-access file (store.RAF).
//
// One node codec, insert descent, delete, range walk, kNN loop, Validate
// and handle-state codec serve both. A family supplies only its
// choose-subtree rule, its split and its bulk load; where a leaf's object
// comes from (inline or the RAF) follows from whether it has balls.
package mtree

import (
	"fmt"
	"math"
	"math/rand"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// Options tunes an M-tree family tree.
type Options struct {
	// NumPivots enables PM-tree rings when > 0.
	NumPivots int
	// Seed drives split promotion and bulk-load sampling.
	Seed int64
}

// BulkOptions tunes Bulk.
type BulkOptions struct {
	// Workers selects the build: 0 inserts one object at a time (the
	// paper's sequential build, §6.2); any other value runs the
	// partitioned bulk load with that much concurrency (negative =
	// GOMAXPROCS). The bulk load's page image is byte-identical for every
	// nonzero value — parallelism only touches phases whose outputs are
	// order-independent, and every page write happens in the sequential
	// merge phase.
	Workers int
}

// family is what differs between the two region trees.
type family struct {
	// ball: regions carry a covering ball and leaves hold their objects
	// inline (the M-tree); otherwise a region is its box alone and the
	// objects live in the RAF (the R-tree).
	ball bool
	// choose picks the routing entry of n to descend into with leaf entry
	// e, and returns the distance from e's object to its routing object
	// (∞ without balls).
	choose func(t *Tree, n *node, e *entry) (int, float64)
	// split divides an overflowed node's entries in two, returning the
	// routing objects of the halves (nil without balls).
	split func(t *Tree, n *node) (a, b []entry, ao, bo core.Object)
	// bulk indexes ids into a tree without pages.
	bulk func(t *Tree, ids []int, workers int) error
}

var (
	mFamily = &family{ball: true, choose: chooseBall, split: splitHyperplane, bulk: bulkPartitioned}
	rFamily = &family{choose: chooseBox, split: splitMedian, bulk: bulkHilbert}
)

// entry is a decoded node entry.
type entry struct {
	id    int32        // leaf: the object
	child store.PageID // routing: the subtree
	// v is a leaf's point (l values) or a routing entry's box (its low
	// corner, then its high corner: 2l values).
	v []float64

	// M-tree only.
	obj    core.Object // the leaf's object, or the routing object
	pd     float64     // distance to the parent's routing object (∞ = unknown)
	radius float64     // routing: covering radius

	raf uint64 // R-tree leaf: the object's RAF offset
}

type node struct {
	leaf    bool
	entries []entry
}

// Tree is a region-tree handle.
type Tree struct {
	ds       *core.Dataset
	pager    *store.Pager
	fam      *family
	seed     int64
	pivots   []core.Object // the l pivots spanning every box (none for a plain M-tree)
	raf      *store.RAF    // R-tree: the objects
	maxCoord float64       // R-tree: d+, the Hilbert bulk load's quantization bound
	root     store.PageID
	size     int
	rng      *rand.Rand
	leafOf   map[int]store.PageID // M-tree: object id -> leaf page (CPT's pointers)
	points   map[int][]float64    // R-tree: object id -> point, for deletes
	scratch  core.ScratchPool     // per-query point and heap
}

// Bulk builds an M-tree — a PM-tree when opts.NumPivots > 0, the pivots
// taken from pivotIDs — over every live object of ds: one object at a
// time when bo.Workers is 0 or the input is too small to partition,
// otherwise by the partitioned bulk load.
func Bulk(ds *core.Dataset, pager *store.Pager, pivotIDs []int, opts Options, bo BulkOptions) (*Tree, error) {
	if opts.NumPivots > 0 && len(pivotIDs) < opts.NumPivots {
		return nil, fmt.Errorf("mtree: need %d pivots, got %d", opts.NumPivots, len(pivotIDs))
	}
	var pivots []core.Object
	for _, id := range pivotIDs[:opts.NumPivots] {
		v := ds.Object(id)
		if v == nil {
			return nil, fmt.Errorf("mtree: pivot %d is not a live object", id)
		}
		pivots = append(pivots, v)
	}
	t := newTree(ds, pager, mFamily, pivots, opts.Seed)
	return t, t.build(ds.LiveIDs(), bo.Workers)
}

// BulkRTree builds an R-tree over the points of every live object of ds
// in the pivot space of pivots, appending the objects to raf. It always
// bulk loads (Hilbert-packed); workers parallelizes the points.
// maxCoord bounds the coordinates (d+).
func BulkRTree(ds *core.Dataset, pager *store.Pager, pivots []core.Object, raf *store.RAF, maxCoord float64, workers int) (*Tree, error) {
	t := newTree(ds, pager, rFamily, pivots, 0)
	t.raf, t.maxCoord = raf, maxCoord
	return t, t.build(ds.LiveIDs(), workers)
}

// newTree returns a handle without pages.
func newTree(ds *core.Dataset, pager *store.Pager, fam *family, pivots []core.Object, seed int64) *Tree {
	return &Tree{ds: ds, pager: pager, fam: fam, seed: seed, pivots: pivots, rng: rand.New(rand.NewSource(seed)),
		leafOf: make(map[int]store.PageID), points: make(map[int][]float64)}
}

// build indexes ids into a tree without pages: one object at a time for
// an M-tree asked for no workers or too few objects to partition,
// otherwise by the family's bulk load.
func (t *Tree) build(ids []int, workers int) error {
	if t.fam.ball && (workers == 0 || len(ids)/minPartitionSize <= 1) {
		t.root = t.pager.Alloc()
		t.write(t.root, &node{leaf: true})
		for _, id := range ids {
			if err := t.Insert(id); err != nil {
				return err
			}
		}
		return nil
	}
	return t.fam.bulk(t, ids, workers)
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// NumPivots returns l (0 for a plain M-tree).
func (t *Tree) NumPivots() int { return len(t.pivots) }

// point computes an object's (or a query's) pivot-space point through
// the batch kernel: l counted distances, none when l = 0.
func (t *Tree) point(o core.Object) []float64 {
	pt := make([]float64, len(t.pivots))
	t.ds.Space().DistanceMany(o, t.pivots, pt)
	return pt
}

// bound returns the box covering every point or box of n.
func (t *Tree) bound(n *node) []float64 {
	l := len(t.pivots)
	box := make([]float64, 2*l)
	for i := range l {
		box[i], box[l+i] = math.Inf(1), math.Inf(-1)
	}
	for j := range n.entries {
		lo, hi := n.entries[j].box(n.leaf)
		extend(box, lo, hi)
	}
	return box
}

// box returns the entry's low and high corners; a leaf's point is both.
func (e *entry) box(leaf bool) (lo, hi []float64) {
	if leaf {
		return e.v, e.v
	}
	return e.v[:len(e.v)/2], e.v[len(e.v)/2:]
}

// extend widens box to cover the box [lo, hi].
func extend(box, lo, hi []float64) {
	l := len(lo)
	for i := range l {
		if lo[i] < box[i] {
			box[i] = lo[i]
		}
		if hi[i] > box[l+i] {
			box[l+i] = hi[i]
		}
	}
}
