package omni

import (
	"math"

	"metricindex/internal/core"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// SeqFile is the Omni-sequential-file (§5.2): the pivot-space coordinates
// stored row-by-row on disk pages, scanned in full by every query — "LAESA
// stored on disk", as the paper puts it, with the accompanying page-access
// bill because nothing is clustered. It is the shared-pivot layout of a
// paged table.Table whose candidates come from the RAF. A range query
// reads every table page before it loads its first candidate; a kNN query
// loads each candidate right after its page.
type SeqFile struct {
	*base
	tab *table.Table
}

// NewSeqFile builds the sequential file over all live objects. workers
// parallelizes the pivot-table precompute (0 or 1 = sequential, negative =
// GOMAXPROCS).
func NewSeqFile(ds *core.Dataset, pager *store.Pager, pivots []int, workers int) (*SeqFile, error) {
	b, err := newBase(ds, pager, pivots)
	if err != nil {
		return nil, err
	}
	t, err := newSeqFile(b)
	if err != nil {
		return nil, err
	}
	ids := ds.LiveIDs()
	for i, pt := range b.buildPoints(ids, workers) {
		if _, err := t.appendRAF(ids[i]); err != nil {
			return nil, err
		}
		if err := t.tab.Append(ids[i], nil, nil, pt); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// newSeqFile lays an empty paged table over the base's pivots.
func newSeqFile(b *base) (*SeqFile, error) {
	tab, err := table.NewPaged("omni", b.ds, b.pager, b.pivotVals, len(b.pivotVals), b.raf.ReadObject, math.MaxInt)
	return &SeqFile{base: b, tab: tab}, err
}

// Name returns "Omni-seq".
func (t *SeqFile) Name() string { return "Omni-seq" }

// Len returns the number of indexed objects.
func (t *SeqFile) Len() int { return t.tab.Len() }

// RangeSearch answers MRQ(q, r) with a full scan (Lemma 1 filter) plus
// RAF verification of survivors.
func (t *SeqFile) RangeSearch(q core.Object, r float64) ([]int, error) {
	return t.tab.Range(q, r, nil)
}

// KNNSearch answers MkNNQ(q, k) with the same scan and a tightening
// radius.
func (t *SeqFile) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return t.tab.KNN(q, k, nil)
}

// Insert appends the RAF record and a row.
func (t *SeqFile) Insert(id int) error {
	if _, err := t.tab.Insertable(id); err != nil {
		return err
	}
	if _, err := t.appendRAF(id); err != nil {
		return err
	}
	return t.tab.Insert(id)
}

// Delete tombstones the row and drops the RAF record.
func (t *SeqFile) Delete(id int) error {
	if err := t.tab.Remove(id); err != nil {
		return err
	}
	return t.raf.Delete(id)
}

// Validate checks that the table's rows are in step (table.Table.Validate).
func (t *SeqFile) Validate() error { return t.tab.Validate() }

// Table returns the index's paged pivot table.
func (t *SeqFile) Table() *table.Table { return t.tab }

// MemBytes reports the small in-memory directory.
func (t *SeqFile) MemBytes() int64 { return t.tab.MemBytes() }
