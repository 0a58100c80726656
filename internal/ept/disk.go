package ept

import (
	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// DiskEPT is the disk-based EPT* the paper's conclusion names as a
// promising direction (§7: "extension of EPT(*) to a disk-based metric
// index with a low construction cost"). It keeps EPT*'s per-object PSA
// pivots — the best query-time compdists of the study — but stores the
// pivot table on sequential disk pages and the objects in a RAF, so the
// dataset no longer has to fit in main memory (EPT*'s stated limitation,
// §3.1/§7).
//
// It is an EPT* — assignment, referenced-pivot pool, insert path — over
// the per-row layout of a paged table.Table whose candidates come from
// the RAF, each loaded right after its page.
type DiskEPT struct {
	e     *EPT
	pager *store.Pager
	raf   *store.RAF
}

// NewDisk builds a disk-based EPT* over all live objects.
func NewDisk(ds *core.Dataset, pager *store.Pager, opts Options) (*DiskEPT, error) {
	e, assign, err := prepare(ds, Star, opts)
	if err != nil {
		return nil, err
	}
	d, err := newDisk(e, pager, store.NewRAF(pager))
	if err != nil {
		return nil, err
	}
	if err := e.fill(assign, opts.Workers, d.appendRAF); err != nil {
		return nil, err
	}
	return d, nil
}

// newDisk lays an empty paged table under e.
func newDisk(e *EPT, pager *store.Pager, raf *store.RAF) (*DiskEPT, error) {
	var err error
	e.tab, err = table.NewPaged("ept", e.ds, pager, nil, e.l, raf.ReadObject, 1)
	return &DiskEPT{e: e, pager: pager, raf: raf}, err
}

func (d *DiskEPT) appendRAF(id int) error {
	_, err := d.raf.Append(id, store.EncodeObject(nil, d.e.ds.Object(id)))
	return err
}

// Name returns "DiskEPT*".
func (d *DiskEPT) Name() string { return "DiskEPT*" }

// Len returns the number of indexed objects.
func (d *DiskEPT) Len() int { return d.e.Len() }

// RangeSearch answers MRQ(q, r): a sequential table scan with Lemma 1 on
// each row's private pivots; survivors are fetched from the RAF and
// verified.
func (d *DiskEPT) RangeSearch(q core.Object, r float64) ([]int, error) {
	return d.e.RangeSearch(q, r)
}

// KNNSearch answers MkNNQ(q, k) by the table scan with a tightening
// radius.
func (d *DiskEPT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return d.e.KNNSearch(q, k)
}

// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids
// (core.AcceptSearcher): a rejected candidate costs no RAF read and no
// distance.
func (d *DiskEPT) RangeSearchAccept(q core.Object, r float64, accept core.Filter) ([]int, error) {
	return d.e.RangeSearchAccept(q, r, accept)
}

// KNNSearchAccept answers MkNNQ(q, k) over accepted ids only.
func (d *DiskEPT) KNNSearchAccept(q core.Object, k int, accept core.Filter) ([]core.Neighbor, error) {
	return d.e.KNNSearchAccept(q, k, accept)
}

// Pushdown reports plan.PushdownScan: every query reads every page of
// the table.
func (d *DiskEPT) Pushdown() plan.Pushdown { return d.e.Pushdown() }

// Insert appends the RAF record, assigns PSA pivots to the object and
// appends its row.
func (d *DiskEPT) Insert(id int) error {
	if _, err := d.e.tab.Insertable(id); err != nil {
		return err
	}
	if err := d.appendRAF(id); err != nil {
		return err
	}
	return d.e.Insert(id)
}

// Delete tombstones the row and drops the RAF record.
func (d *DiskEPT) Delete(id int) error {
	if err := d.e.Delete(id); err != nil {
		return err
	}
	return d.raf.Delete(id)
}

// Validate checks that the table's rows are in step (table.Table.Validate).
func (d *DiskEPT) Validate() error { return d.e.Validate() }

// Table returns the index's paged pivot table.
func (d *DiskEPT) Table() *table.Table { return d.e.tab }

// PageAccesses reports the pager's accesses (table + RAF).
func (d *DiskEPT) PageAccesses() int64 { return d.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (d *DiskEPT) ResetStats() { d.pager.ResetStats() }

// MemBytes reports the small in-memory state (the row directory).
func (d *DiskEPT) MemBytes() int64 { return d.e.MemBytes() }

// DiskBytes reports the table + RAF footprint.
func (d *DiskEPT) DiskBytes() int64 { return d.pager.DiskBytes() }
