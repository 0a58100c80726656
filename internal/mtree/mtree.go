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
//
// The handle, Tree, is itself the PM-tree's and the OmniR-tree's
// core.Index (NewPMTree, NewOmniRTree) and registers both snapshot
// kinds; a plain M-tree is CPT's object store (internal/table), which
// writes the tree's handle state inside its own payload.
package mtree

import (
	"fmt"
	"math"
	"math/rand"

	"metricindex/internal/core"
	"metricindex/internal/persist"
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
	pivotIDs []int         // R-tree: the pivots' dataset ids, for the Omni base
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

// NewPMTree builds the PM-tree of [26] (§5.1) over every live object of
// ds: an M-tree whose every region also has the hyper-rings of all of
// pivots, pruned by Lemma 1 on the rings and Lemma 2 on the covering
// balls. workers selects the build as BulkOptions.Workers does: 0 keeps
// the paper's one-by-one insertion (§6.2), any other value the
// partitioned bulk load, whose page image is the same for every nonzero
// value. Objects are stored inside the tree nodes, which is why
// high-dimensional datasets need the 40 KB page size (§6.1).
func NewPMTree(ds *core.Dataset, pager *store.Pager, pivots []int, seed int64, workers int) (*Tree, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("pmtree: no pivots")
	}
	return Bulk(ds, pager, pivots, Options{NumPivots: len(pivots), Seed: seed}, BulkOptions{Workers: workers})
}

// NewOmniRTree builds the OmniR-tree (§5.2) over every live object of ds:
// an R-tree over the objects' Omni-coordinates in the pivot space of
// pivots, with the objects in a RAF on the same pager. maxDistance (d+;
// 1 when not positive) quantizes the Hilbert bulk load; workers
// parallelizes the coordinates.
func NewOmniRTree(ds *core.Dataset, pager *store.Pager, pivots []int, maxDistance float64, workers int) (*Tree, error) {
	b, err := persist.NewOmni(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	if maxDistance <= 0 {
		maxDistance = 1
	}
	t, err := BulkRTree(ds, pager, b.Pivots, b.RAF, maxDistance, workers)
	if err != nil {
		return nil, err
	}
	t.pivotIDs = b.PivotIDs
	return t, nil
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

// Name returns the index family, the snapshot kind: "PM-tree",
// "OmniR-tree", or "M-tree" for CPT's plain object store.
func (t *Tree) Name() string {
	switch {
	case !t.fam.ball:
		return "OmniR-tree"
	case len(t.pivots) > 0:
		return "PM-tree"
	}
	return "M-tree"
}

// PageAccesses reports the pager's accesses: the nodes', and the
// R-tree's RAF reads.
func (t *Tree) PageAccesses() int64 { return t.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (t *Tree) ResetStats() { t.pager.ResetStats() }

// MemBytes is small: an M-tree keeps only its leaf directory in memory,
// an R-tree the point table its deletes descend by.
func (t *Tree) MemBytes() int64 {
	if t.fam.ball {
		return int64(t.size) * 12
	}
	return int64(t.size) * int64(8+8*len(t.pivots))
}

// DiskBytes reports the volume's footprint: for an M-tree the objects
// are in it (hence the PM-tree's, the largest of Table 4), for an
// R-tree its RAF is.
func (t *Tree) DiskBytes() int64 { return t.pager.DiskBytes() }

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
