package table

import "metricindex/internal/store"

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
