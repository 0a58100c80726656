package table

import (
	"math"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
	"metricindex/internal/store"
)

// Index is the handle of the three shared-pivot families, which differ
// only in data — the pager, where the objects live, and the payload:
//
//   - LAESA, the linear AESA of [19] (§3.1), stores d(o, p) for every
//     object o and every pivot p of one shared pivot set (Fig 3) — the
//     shared-pivot layout of Table — with the objects in memory and no
//     pager;
//   - CPT, the Clustered Pivot Table of [20] (§3.3), keeps the same
//     in-memory table but its objects on disk, clustered by an M-tree
//     (internal/mtree) so that verification I/O has locality: every
//     verified candidate is a leaf read, the page accesses CPT trades
//     for keeping the objects out of memory (Tables 4 and 6 show the
//     resulting high construction and update costs);
//   - Omni-seq, the Omni-sequential-file of [17] (§5.2), is "LAESA
//     stored on disk": the rows on pages (a paged Table) that every
//     query scans in full, with the accompanying page-access bill
//     because nothing is clustered, and the objects in the RAF of its
//     Omni base (persist.Omni). A range query reads every table page
//     before it loads its first candidate; a kNN query loads each
//     candidate right after its page.
//
// MRQ prunes with the column lower bounds; MkNNQ does the same with a
// radius tightened by verification (Table.Range, Table.KNN). All three
// take an accept test (core.AcceptSearcher) into the same scan, and
// report how far it reaches as data of their rows (Table.Pushdown).
type Index struct {
	tab   *Table
	kind  string       // "LAESA", "CPT" or "Omni-seq"
	pager *store.Pager // CPT's and Omni-seq's disk; nil for LAESA
	tree  *mtree.Tree  // CPT: the M-tree holding the objects
	omni  persist.Omni // Omni-seq: its base, whose RAF holds the objects
}

// NewLAESA builds the index over all live objects, computing the full
// distance table through the counted space with GOMAXPROCS workers (the
// table is identical for every worker count). The pivot object values
// are snapshotted, so later deletion of a pivot from the dataset does not
// invalidate the index.
func NewLAESA(ds *core.Dataset, pivots []int) (*Index, error) {
	return NewLAESAParallel(ds, pivots, 0)
}

// NewLAESAParallel builds a LAESA distance table with the construction
// parallelized across objects, as §6.2's discussion suggests ("since
// objects are independent of each other, the pre-computed distances for
// each object can be computed in parallel"). The resulting index is
// byte-for-byte identical to the sequential build; only wall-clock
// construction time changes. workers <= 0 uses GOMAXPROCS.
func NewLAESAParallel(ds *core.Dataset, pivots []int, workers int) (*Index, error) {
	if workers <= 0 {
		workers = -1 // ParallelFor: negative means GOMAXPROCS
	}
	tab, err := Build("laesa", ds, pivots, workers, nil)
	if err != nil {
		return nil, err
	}
	return &Index{tab: tab, kind: "LAESA"}, nil
}

// NewCPT builds the CPT over all live objects on pager: the in-memory
// distance table, its precompute fanned out over workers goroutines (0 or
// 1 sequential, negative GOMAXPROCS; the table is identical for every
// value), plus the disk M-tree holding the objects. workers 0 builds the
// M-tree by repeated insertion — where the extra construction compdists
// of Table 4 come from — any other value by the partitioned bulk load,
// whose page image is identical for every nonzero value. Answers are
// identical either way, but because the bulk load clusters objects onto
// different pages than insertion, per-query PA (buffer-cache locality of
// candidate reads) and update costs shift slightly. seed drives M-tree
// split sampling.
func NewCPT(ds *core.Dataset, pager *store.Pager, pivots []int, seed int64, workers int) (*Index, error) {
	t := &Index{kind: "CPT", pager: pager}
	var err error
	if t.tab, err = Build("cpt", ds, pivots, workers, t.readObject); err != nil {
		return nil, err
	}
	if t.tree, err = mtree.Bulk(ds, pager, nil, mtree.Options{Seed: seed},
		mtree.BulkOptions{Workers: workers}); err != nil {
		return nil, err
	}
	return t, nil
}

// readObject is CPT's candidate loader: one M-tree leaf read per
// verified candidate.
func (t *Index) readObject(id int) (core.Object, error) { return t.tree.ReadObject(id) }

// NewOmniSeq builds the Omni-sequential-file over all live objects on
// pager. workers parallelizes the pivot-table precompute (0 or 1 =
// sequential, negative = GOMAXPROCS).
func NewOmniSeq(ds *core.Dataset, pager *store.Pager, pivots []int, workers int) (*Index, error) {
	b, err := persist.NewOmni(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	t, err := newOmniSeq(ds, b)
	if err != nil {
		return nil, err
	}
	ids, cols := core.BuildDistCols(ds, ds.LiveIDs(), b.Pivots, workers)
	dists := make([]float64, len(cols))
	for row, id := range ids {
		if _, err := b.RAF.Append(int(id), store.EncodeObject(nil, ds.Object(int(id)))); err != nil {
			return nil, err
		}
		for c := range cols {
			dists[c] = cols[c][row]
		}
		if err := t.tab.Append(int(id), nil, nil, dists); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newOmniSeq lays an empty paged table over the base's pivots.
func newOmniSeq(ds *core.Dataset, b persist.Omni) (*Index, error) {
	tab, err := NewPaged("omni", ds, b.Pager, b.Pivots, len(b.Pivots), b.RAF.ReadObject, math.MaxInt)
	return &Index{tab: tab, kind: "Omni-seq", pager: b.Pager, omni: b}, err
}

// Name returns the family: "LAESA", "CPT" or "Omni-seq".
func (t *Index) Name() string { return t.kind }

// Pivots returns the pivot ids used by the table.
func (t *Index) Pivots() []int { return t.tab.PivotIDs() }

// Len returns the number of indexed objects.
func (t *Index) Len() int { return t.tab.Len() }

// RangeSearch answers MRQ(q, r) by a filtered scan of the table.
func (t *Index) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.tab.Range(q, r, nil)
}

// KNNSearch answers MkNNQ(q, k) by the best-first block scan.
func (t *Index) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.tab.KNN(q, k, nil)
}

// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids
// (core.AcceptSearcher): the predicate is applied to every candidate
// that survives the Lemma 1 column sweep, before its distance is
// computed — and, for CPT and Omni-seq, before its object is read from
// disk. Rejected candidates therefore cost zero compdists and no page
// access — the whole point of the probe-filter strategy — while the
// geometric pruning is untouched, so the answer is exactly the accepted
// subset of the unfiltered answer. A nil accept is the unfiltered
// search.
func (t *Index) RangeSearchAccept(q core.Object, r float64, accept core.Filter) ([]int, error) {
	return t.tab.Range(q, r, accept)
}

// KNNSearchAccept answers MkNNQ(q, k) over accepted ids only.
func (t *Index) KNNSearchAccept(q core.Object, k int, accept core.Filter) ([]core.Neighbor, error) {
	return t.tab.KNN(q, k, accept)
}

// Pushdown reports the table's: plan.PushdownPruned for LAESA's and
// CPT's zoned in-memory rows, plan.PushdownScan for Omni-seq's pages.
func (t *Index) Pushdown() plan.Pushdown { return t.tab.Pushdown() }

// RefreshAttrs copies an object's rewritten attribute cells into its
// row (epoch.Live calls it).
func (t *Index) RefreshAttrs(id int) { t.tab.RefreshAttrs(id) }

// Insert adds one object's row, after storing the object where the
// family keeps it: CPT's M-tree or Omni-seq's RAF.
func (t *Index) Insert(id int) error {
	o, err := t.tab.Insertable(id)
	switch {
	case err != nil:
	case t.tree != nil:
		err = t.tree.Insert(id)
	case t.omni.RAF != nil:
		_, err = t.omni.RAF.Append(id, store.EncodeObject(nil, o))
	}
	if err != nil {
		return err
	}
	return t.tab.Insert(id)
}

// Delete removes an object's row, and its object from CPT's M-tree
// (first) or Omni-seq's RAF (last).
func (t *Index) Delete(id int) error {
	if t.tree != nil && t.tab.Row(id) >= 0 {
		if err := t.tree.Delete(id); err != nil {
			return err
		}
	}
	if err := t.tab.Remove(id); err != nil || t.omni.RAF == nil {
		return err
	}
	return t.omni.RAF.Delete(id)
}

// Validate checks CPT's M-tree invariants (mtree.Tree.Validate) and
// that the table's row state is in step (Table.Validate).
func (t *Index) Validate() error {
	if t.tree != nil {
		if err := t.tree.Validate(); err != nil {
			return err
		}
	}
	return t.tab.Validate()
}

// Table returns the index's pivot table, whose row order tests model.
func (t *Index) Table() *Table { return t.tab }

// PageAccesses reports the pager's accesses: CPT's M-tree reads and
// writes, Omni-seq's table pages and RAF; 0 for the in-memory LAESA.
func (t *Index) PageAccesses() int64 {
	if t.pager == nil {
		return 0
	}
	return t.pager.PageAccesses()
}

// ResetStats zeroes the pager counters.
func (t *Index) ResetStats() {
	if t.pager != nil {
		t.pager.ResetStats()
	}
}

// MemBytes reports the resident size of the table (the component the
// paper counts as CPT's memory storage; Omni-seq's is its small
// directory).
func (t *Index) MemBytes() int64 { return t.tab.MemBytes() }

// DiskBytes reports the pager's footprint: CPT's M-tree, Omni-seq's
// table pages and RAF; 0 for the in-memory LAESA.
func (t *Index) DiskBytes() int64 {
	if t.pager == nil {
		return 0
	}
	return t.pager.DiskBytes()
}
