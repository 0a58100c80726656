package table

import (
	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// LAESA is the linear AESA of [19]: it stores d(o, p) for every object o
// and every pivot p of one shared pivot set (Fig 3) — the shared-pivot
// layout of Table, with the objects in memory. MRQ prunes with the column
// lower bounds; MkNNQ does the same with a radius tightened by
// verification (Table.Range, Table.KNN).
type LAESA struct {
	tab *Table
}

// NewLAESA builds the index over all live objects, computing the full
// distance table through the counted space with GOMAXPROCS workers (the
// table is identical for every worker count). The pivot object values
// are snapshotted, so later deletion of a pivot from the dataset does not
// invalidate the index.
func NewLAESA(ds *core.Dataset, pivots []int) (*LAESA, error) {
	return NewLAESAParallel(ds, pivots, 0)
}

// NewLAESAParallel builds a LAESA distance table with the construction
// parallelized across objects, as §6.2's discussion suggests ("since
// objects are independent of each other, the pre-computed distances for
// each object can be computed in parallel"). The resulting index is
// byte-for-byte identical to the sequential build; only wall-clock
// construction time changes. workers <= 0 uses GOMAXPROCS.
func NewLAESAParallel(ds *core.Dataset, pivots []int, workers int) (*LAESA, error) {
	if workers <= 0 {
		workers = -1 // ParallelFor: negative means GOMAXPROCS
	}
	tab, err := Build("laesa", ds, pivots, workers, nil)
	if err != nil {
		return nil, err
	}
	return &LAESA{tab: tab}, nil
}

// Name returns "LAESA".
func (t *LAESA) Name() string { return "LAESA" }

// Pivots returns the pivot ids used by the table.
func (t *LAESA) Pivots() []int { return t.tab.PivotIDs() }

// Len returns the number of indexed objects.
func (t *LAESA) Len() int { return t.tab.Len() }

// RangeSearch answers MRQ(q, r) by a filtered scan of the table.
func (t *LAESA) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.tab.Range(q, r, nil)
}

// KNNSearch answers MkNNQ(q, k) by the best-first block scan.
func (t *LAESA) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.tab.KNN(q, k, nil)
}

// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids
// (core.AcceptSearcher): the predicate is applied to every candidate
// that survives the Lemma 1 column sweep, before its distance is
// computed. Rejected candidates therefore cost zero compdists — the
// whole point of the probe-filter strategy — while the geometric pruning
// is untouched, so the answer is exactly the accepted subset of the
// unfiltered answer. A nil accept is the unfiltered search.
func (t *LAESA) RangeSearchAccept(q core.Object, r float64, accept core.Accept) ([]int, error) {
	return t.tab.Range(q, r, accept)
}

// KNNSearchAccept answers MkNNQ(q, k) over accepted ids only.
func (t *LAESA) KNNSearchAccept(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
	return t.tab.KNN(q, k, accept)
}

// Pushdown reports plan.PushdownPruned: the accept test runs only on
// the rows that survive the zone-skipping best-first sweep, never on a
// block the zone map rules out.
func (t *LAESA) Pushdown() plan.Pushdown { return plan.PushdownPruned }

// Insert adds one object's row.
func (t *LAESA) Insert(id int) error { return t.tab.Insert(id) }

// Delete removes an object's row.
func (t *LAESA) Delete(id int) error { return t.tab.Remove(id) }

// Validate checks that the table's row state is in step (Table.Validate).
func (t *LAESA) Validate() error { return t.tab.Validate() }

// Table returns the index's pivot table, whose row order tests model.
func (t *LAESA) Table() *Table { return t.tab }

// PageAccesses returns 0: LAESA is an in-memory index.
func (t *LAESA) PageAccesses() int64 { return 0 }

// ResetStats is a no-op for the in-memory table.
func (t *LAESA) ResetStats() {}

// MemBytes reports the resident size of the table.
func (t *LAESA) MemBytes() int64 { return t.tab.MemBytes() }

// DiskBytes returns 0: LAESA is an in-memory index.
func (t *LAESA) DiskBytes() int64 { return 0 }
