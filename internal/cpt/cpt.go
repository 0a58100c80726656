// Package cpt implements the Clustered Pivot Table of [20] (§3.3): a
// LAESA-style in-memory distance table whose *objects* live on disk,
// clustered by an M-tree so that verification I/O has locality. Queries
// scan the table with Lemma 1 and load only unpruned objects from the
// M-tree leaves — trading the table family's need to hold objects in
// memory for per-candidate page accesses (the paper's Table 4/6 show the
// resulting high construction and update costs).
package cpt

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Options tunes construction.
type Options struct {
	// Seed drives M-tree split sampling.
	Seed int64
	// Workers parallelizes construction: the distance-table precompute
	// fans its rows out over this many goroutines (0 or 1 sequential,
	// negative GOMAXPROCS), and any nonzero value additionally builds the
	// object M-tree with the partitioned bulk load of internal/mtree
	// instead of one-by-one insertion. The distance table is identical
	// for every value, and the bulk-loaded M-tree's page image is
	// identical for every nonzero value. Answers are identical either
	// way, but because the bulk load clusters objects onto different
	// pages than insertion, per-query PA (buffer-cache locality of
	// candidate reads) and update costs shift slightly versus Workers=0.
	Workers int
}

// CPT is the clustered pivot table index: LAESA's table — the
// shared-pivot layout of table.Table — whose candidates are loaded from
// the M-tree on disk instead of from memory.
type CPT struct {
	pager *store.Pager
	tree  *mtree.Tree
	tab   *table.Table
}

// New builds the CPT: the in-memory distance table plus the disk M-tree
// holding the objects (built by repeated insertion — where the extra
// construction compdists of Table 4 come from — or by the partitioned
// bulk load when Workers != 0).
func New(ds *core.Dataset, pager *store.Pager, pivots []int, opts Options) (*CPT, error) {
	c := &CPT{pager: pager}
	var err error
	if c.tab, err = table.Build("cpt", ds, pivots, opts.Workers, c.readObject); err != nil {
		return nil, err
	}
	if c.tree, err = mtree.Bulk(ds, pager, nil, mtree.Options{Seed: opts.Seed},
		mtree.BulkOptions{Workers: opts.Workers}); err != nil {
		return nil, err
	}
	return c, nil
}

// readObject is the table's candidate loader: one M-tree leaf read per
// verified candidate, the page accesses CPT trades for keeping the
// objects out of memory.
func (c *CPT) readObject(id int) (core.Object, error) { return c.tree.ReadObject(id) }

// Name returns "CPT".
func (c *CPT) Name() string { return "CPT" }

// Len returns the number of indexed objects.
func (c *CPT) Len() int { return c.tab.Len() }

// RangeSearch answers MRQ(q, r): the table's column sweep applies
// Lemma 1; surviving candidates are loaded from the M-tree on disk and
// verified through DistanceMany in chunks (§3.3).
func (c *CPT) RangeSearch(q core.Object, r float64) ([]int, error) {
	return c.tab.Range(q, r, nil)
}

// KNNSearch answers MkNNQ(q, k) by the LAESA procedure with disk loads.
// Verification is per candidate: the fresh-radius recheck makes the
// admitted set exactly the scalar scan's, and for CPT every admission is
// a disk read, not just a distance.
func (c *CPT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return c.tab.KNN(q, k, nil)
}

// Insert adds the object to the M-tree and the table.
func (c *CPT) Insert(id int) error {
	if _, err := c.tab.Insertable(id); err != nil {
		return err
	}
	if err := c.tree.Insert(id); err != nil {
		return err
	}
	return c.tab.Insert(id)
}

// Delete removes the object from the M-tree and the table.
func (c *CPT) Delete(id int) error {
	if c.tab.Row(id) < 0 {
		return fmt.Errorf("cpt: delete of unindexed object %d", id)
	}
	if err := c.tree.Delete(id); err != nil {
		return err
	}
	return c.tab.Remove(id)
}

// Validate checks the M-tree's invariants (mtree.Tree.Validate) and that
// the table's row state is in step (table.Table.Validate).
func (c *CPT) Validate() error {
	if err := c.tree.Validate(); err != nil {
		return err
	}
	return c.tab.Validate()
}

// Table returns the index's pivot table, whose row order tests model.
func (c *CPT) Table() *table.Table { return c.tab }

// PageAccesses reports the pager's accesses (M-tree reads/writes).
func (c *CPT) PageAccesses() int64 { return c.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (c *CPT) ResetStats() { c.pager.ResetStats() }

// MemBytes reports the in-memory distance table size (the component the
// paper counts as CPT's memory storage).
func (c *CPT) MemBytes() int64 { return c.tab.MemBytes() }

// DiskBytes reports the M-tree's on-disk footprint.
func (c *CPT) DiskBytes() int64 { return c.pager.DiskBytes() }
