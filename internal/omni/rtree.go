package omni

import (
	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/store"
)

// RTree is the OmniR-tree (§5.2): an R-tree over the pivot-space points
// with the objects in the RAF — internal/mtree's R-tree family. The
// paper's experiments use this member as the family's representative
// because it performs best.
type RTree struct {
	*base
	tree *mtree.Tree
}

// Options tunes construction.
type Options struct {
	// MaxDistance bounds pivot distances (d+), used to quantize the
	// Hilbert bulk-load ordering.
	MaxDistance float64
	// Workers parallelizes the pivot-table precompute during
	// construction: 0 or 1 builds sequentially, negative uses GOMAXPROCS,
	// otherwise that many goroutines.
	Workers int
}

// NewRTree bulk-loads the OmniR-tree over all live objects.
func NewRTree(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*RTree, error) {
	b, err := newBase(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	maxD := opts.MaxDistance
	if maxD <= 0 {
		maxD = 1
	}
	tree, err := mtree.BulkRTree(ds, pager, b.pivotVals, b.raf, maxD, opts.Workers)
	if err != nil {
		return nil, err
	}
	return &RTree{base: b, tree: tree}, nil
}

// Name returns "OmniR-tree".
func (t *RTree) Name() string { return "OmniR-tree" }

// Len returns the number of indexed objects.
func (t *RTree) Len() int { return t.tree.Len() }

// RangeSearch answers MRQ(q, r): the R-tree reports every point inside
// SR(q) (Lemma 1), and each candidate is fetched from the RAF and
// verified (§5.2).
func (t *RTree) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.tree.RangeSearch(q, r)
}

// KNNSearch answers MkNNQ(q, k) best-first: R-tree nodes in ascending
// pivot-space MINDIST order (a lower bound of the true distance by
// Lemma 1), leaf candidates verified against the RAF with a tightening
// radius (§5.2).
func (t *RTree) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.tree.KNNSearch(q, k)
}

// Insert appends the object to the RAF and the R-tree.
func (t *RTree) Insert(id int) error { return t.tree.Insert(id) }

// Delete removes the object from the R-tree (descending by its stored
// point) and the RAF directory.
func (t *RTree) Delete(id int) error { return t.tree.Delete(id) }

// Validate checks the R-tree's invariants (mtree.Tree.Validate).
func (t *RTree) Validate() error { return t.tree.Validate() }

// MemBytes reports the in-memory footprint (pivot table and the
// coordinate directory used for deletes).
func (t *RTree) MemBytes() int64 {
	return int64(t.tree.Len()) * int64(8+8*len(t.pivotVals))
}
