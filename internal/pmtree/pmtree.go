// Package pmtree exposes the PM-tree of [26] (§5.1) as a top-level index:
// an M-tree whose every entry additionally stores hyper-ring intervals
// (the cut-regions / MBB in pivot space) over the shared pivot set, pruned
// by Lemma 1 on the rings and Lemma 2 on the covering balls. The heavy
// lifting lives in internal/mtree with NumPivots > 0; this package wires
// it to the core.Index contract and owns the query-time pivot distances.
package pmtree

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/store"
)

// Options tunes construction.
type Options struct {
	// Seed drives split promotion sampling and bulk-load partitioning.
	Seed int64
	// Workers selects the build strategy: 0 keeps the paper's one-by-one
	// insertion build (the sequential methodology of §6.2); any other
	// value runs the partitioned bulk load of internal/mtree with that
	// many goroutines (1 = the bulk load run sequentially, negative =
	// GOMAXPROCS). The bulk load's page image is byte-identical for every
	// nonzero Workers value.
	Workers int
}

// PMTree is the pivoting metric tree index.
type PMTree struct {
	pager *store.Pager
	tree  *mtree.Tree
}

// New builds a PM-tree over all live objects using the shared pivots.
// Objects are stored inside the tree nodes (which is why high-dimensional
// datasets need the 40 KB page size, §6.1).
func New(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*PMTree, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("pmtree: no pivots")
	}
	tree, err := mtree.Bulk(ds, pager, pivots, mtree.Options{NumPivots: len(pivots), Seed: opts.Seed},
		mtree.BulkOptions{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	return &PMTree{pager: pager, tree: tree}, nil
}

// Name returns "PM-tree".
func (t *PMTree) Name() string { return "PM-tree" }

// Len returns the number of indexed objects.
func (t *PMTree) Len() int { return t.tree.Len() }

// RangeSearch answers MRQ(q, r) by depth-first traversal with ring
// (Lemma 1) and ball (Lemma 2) pruning.
func (t *PMTree) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.tree.RangeSearch(q, r)
}

// KNNSearch answers MkNNQ(q, k) by best-first traversal in ascending
// lower-bound order.
func (t *PMTree) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.tree.KNNSearch(q, k)
}

// Insert adds the dataset object with the given id.
func (t *PMTree) Insert(id int) error { return t.tree.Insert(id) }

// Delete removes the object from its leaf.
func (t *PMTree) Delete(id int) error { return t.tree.Delete(id) }

// PageAccesses reports the pager's accesses.
func (t *PMTree) PageAccesses() int64 { return t.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (t *PMTree) ResetStats() { t.pager.ResetStats() }

// MemBytes is small: the PM-tree keeps only the pivot values and the
// leaf directory in memory.
func (t *PMTree) MemBytes() int64 { return int64(t.tree.Len()) * 12 }

// DiskBytes reports the tree's on-disk footprint (objects included, hence
// the largest of all indexes in Table 4).
func (t *PMTree) DiskBytes() int64 { return t.pager.DiskBytes() }
