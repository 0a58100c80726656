package table

import (
	"metricindex/internal/core"
	"metricindex/internal/store"
)

// ZoneRows and SuperBlocks are the block and super-zone sizes, for the
// external tests to size tables that span several of them.
const (
	ZoneRows    = zoneRows
	SuperBlocks = superBlocks
)

// File returns a paged table's row file, for tests that craft its pages.
func (t *Table) File() *store.RowFile { return t.file }

// RecordIDs returns the ids of a paged table's records in file order,
// −1 for a tombstone.
func (t *Table) RecordIDs() []int32 {
	var ids []int32
	_ = t.eachRecord(func(_ int, id uint32, _ []int32, _ []float64) error {
		ids = append(ids, int32(id))
		return nil
	})
	return ids
}

// WordPass reports whether a query handed accept tests its candidates
// through the attribute copy's 64-row words rather than per id.
func (t *Table) WordPass(accept core.Filter) bool { return t.wordsOf(accept) != nil }

// AttrCopyInStep reports whether the attribute copy is in step with the
// dataset's attribute store.
func (t *Table) AttrCopyInStep() bool { return t.attrs.InStep(t.ds.AttrStore()) }

// Exact returns how many rows the table's scans of a narrowed mirror have
// verified on their objects (scan.nexact) since it was built.
func (t *Table) Exact() int64 { return t.nexact.Load() }
