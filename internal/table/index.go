package table

import (
	"math"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/store"
)

// Index is the handle of the six table families, which differ only in
// data — how a row is assigned its pivots, where the objects live, the
// pager, and the payload:
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
//     because nothing is clustered, and the objects in a RAF. A range
//     query reads every table page before it loads its first
//     candidate; a kNN query loads each candidate right after its page;
//   - EPT, EPT* and DiskEPT* (ept.go) give every row its own pivots —
//     the per-row layout of Table — DiskEPT* with its rows on pages and
//     its objects in a RAF like Omni-seq, but each candidate loaded
//     right after its page by range queries too.
//
// MRQ prunes with the column lower bounds; MkNNQ does the same with a
// radius tightened by verification (Table.Range, Table.KNN). All six
// take an accept test (core.AcceptSearcher) into the same scan, and
// report how far it reaches as data of their rows (Table.Pushdown).
type Index struct {
	tab    *Table
	kind   string       // "LAESA", "EPT", "EPT*", "CPT", "Omni-seq" or "DiskEPT*"
	pager  *store.Pager // the disk of CPT, Omni-seq and DiskEPT*; nil in memory
	tree   *mtree.Tree  // CPT: the M-tree holding the objects
	raf    *store.RAF   // Omni-seq, DiskEPT*: the RAF holding the objects
	assign *assignment  // EPT, EPT*, DiskEPT*: each row's own pivots; nil on the shared layout
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
	if err == nil {
		err = t.fill(workers)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// newOmniSeq lays an empty paged table over the base's pivots.
func newOmniSeq(ds *core.Dataset, b persist.Omni) (*Index, error) {
	tab, err := newPaged("omni", ds, b.Pager, b.Pivots, len(b.Pivots), b.RAF.ReadObject, math.MaxInt)
	if err != nil {
		return nil, err
	}
	tab.pivotIDs = b.PivotIDs
	return &Index{tab: tab, kind: "Omni-seq", pager: b.Pager, raf: b.RAF}, nil
}

// fill gives every live object its row — the build of the families
// whose rows go in one by one (Omni-seq and the per-row families; LAESA
// and CPT place theirs in curve order, Build). The rows are computed
// first, fanned out over workers goroutines (§6.2: objects are
// independent), then stored in LiveIDs order regardless of worker count,
// so the table is identical to a sequential build.
func (t *Index) fill(workers int) error {
	ds := t.tab.ds
	ids := ds.LiveIDs()
	pvs, dvs := make([][]int32, len(ids)), make([][]float64, len(ids))
	core.ParallelFor(len(ids), workers, func(start, end int) {
		for i := start; i < end; i++ {
			pvs[i], dvs[i] = t.row(ds.Object(ids[i]), make([]float64, len(t.tab.pivots)))
		}
	})
	for i, id := range ids {
		if err := t.add(id, ds.Object(id), pvs[i], dvs[i]); err != nil {
			return err
		}
	}
	return nil
}

// row computes object o's row: on the per-row layout, its own pivots'
// dataset ids and distances; on the shared layout, its distances to the
// pivots, into dv.
func (t *Index) row(o core.Object, dv []float64) ([]int32, []float64) {
	if t.assign != nil {
		return t.assign.row(t.tab.ds.Space(), o)
	}
	t.tab.ds.Space().DistanceMany(o, t.tab.pivots, dv)
	return nil, dv
}

// add stores object id where the family keeps it — CPT's M-tree, the
// RAF of Omni-seq and DiskEPT*, or nowhere beyond the dataset — and
// appends its row: dists, and on the per-row layout the pivots' dataset
// ids pv, which add rewrites into pool references in place, admitting a
// pivot to the pool on its first reference.
func (t *Index) add(id int, o core.Object, pv []int32, dists []float64) error {
	var err error
	switch {
	case t.tree != nil:
		err = t.tree.Insert(id)
	case t.raf != nil:
		_, err = t.raf.Append(id, store.EncodeObject(nil, o))
	}
	if err != nil {
		return err
	}
	for c, p := range pv {
		pv[c] = t.tab.pivotRef(p, t.assign.vals[p])
	}
	return t.tab.Append(id, o, pv, dists)
}

// Name returns the family: "LAESA", "EPT", "EPT*", "CPT", "Omni-seq" or
// "DiskEPT*".
func (t *Index) Name() string { return t.kind }

// Pivots returns the ids of the shared pivots; nil on the per-row
// layout.
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
// computed — and, for the disk families, before its object is read
// from disk. Rejected candidates therefore cost zero compdists and no page
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
// CPT's zoned in-memory rows, plan.PushdownScan for the per-row layout,
// which has no zones, and for pages.
func (t *Index) Pushdown() plan.Pushdown { return t.tab.Pushdown() }

// RefreshAttrs copies an object's rewritten attribute cells into its
// row (epoch.Live calls it).
func (t *Index) RefreshAttrs(id int) { t.tab.RefreshAttrs(id) }

// Insert adds one object's row — its distances to the shared pivots,
// one DistanceMany, or the pivots the family assigns it — after storing
// the object where the family keeps it. The original EPT re-estimates
// its groups' μ values first, the dominant update cost of Table 6; the
// assignment distances make every per-row insert expensive.
func (t *Index) Insert(id int) error {
	o, err := t.tab.insertable(id)
	if err != nil {
		return err
	}
	if t.assign != nil && t.assign.groups != nil {
		t.assign.groups.ReestimateMu(t.tab.ds, pivot.Options{Seed: int64(id)})
	}
	sc := t.tab.scratch.Get()
	pv, dists := t.row(o, sc.GrowQD(len(t.tab.pivots)))
	err = t.add(id, o, pv, dists)
	t.tab.scratch.Put(sc)
	return err
}

// Delete removes an object's row, and its object from CPT's M-tree
// (first) or the RAF (last).
func (t *Index) Delete(id int) error {
	if t.tree != nil && t.tab.Row(id) >= 0 {
		if err := t.tree.Delete(id); err != nil {
			return err
		}
	}
	if err := t.tab.Remove(id); err != nil || t.raf == nil {
		return err
	}
	return t.raf.Delete(id)
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
// writes, the table pages and RAF of Omni-seq and DiskEPT*; 0 in
// memory.
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
// paper counts as CPT's memory storage; a paged table's is its small
// directory). EPT stores a pivot reference next to every distance, so
// its table is larger than LAESA's (Table 4).
func (t *Index) MemBytes() int64 { return t.tab.MemBytes() }

// DiskBytes reports the pager's footprint: CPT's M-tree, the table
// pages and RAF of Omni-seq and DiskEPT*; 0 in memory.
func (t *Index) DiskBytes() int64 {
	if t.pager == nil {
		return 0
	}
	return t.pager.DiskBytes()
}
