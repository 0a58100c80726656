package table_test

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// TestTableSnapshotRejectsCorruptRowIDs overwrites one row id of a
// LAESA, CPT, EPT and EPT* snapshot — with an id outside the dataset, and
// with another row's id — re-seals the section checksum so only the
// table is wrong, and requires the load to fail. Accepted, the first
// would panic in the first query and the second would answer that object
// twice.
func TestTableSnapshotRejectsCorruptRowIDs(t *testing.T) {
	for _, family := range []string{"LAESA", "CPT", "EPT", "EPT*"} {
		ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 7)
		idx := goldenBuild(t, family, ds)
		image, err := persist.Encode(ds, idx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := persist.Decode(image); err != nil {
			t.Fatalf("%s: the intact snapshot does not load: %v", family, err)
		}
		w := persist.NewWriter()
		if err := idx.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		// The index payload is the image's last section. LAESA's and CPT's
		// end with the table block's row ids (u32 count, u32 each) and its
		// n×l floats (u32 count, f64 each); EPT's row ids follow its
		// version, variant and row width.
		payload := len(w.Bytes())
		rows, l := ds.Count(), len(idx.(interface{ Table() *table.Table }).Table().Cols())
		rowID := func(image []byte, row int) []byte {
			at := len(image) - (4 + 8*rows*l) - 4*rows + 4*row
			if family == "EPT" || family == "EPT*" {
				at = len(image) - payload + 2 + 1 + 4 + 4 + 4*row
			}
			return image[at : at+4]
		}
		for name, id := range map[string]uint32{
			"an id outside the dataset": 5000,
			"another row's id":          binary.LittleEndian.Uint32(rowID(image, 7)),
		} {
			bad := append([]byte(nil), image...)
			binary.LittleEndian.PutUint32(rowID(bad, 3), id)
			sum := bad[len(bad)-payload-4 : len(bad)-payload]
			binary.LittleEndian.PutUint32(sum, crc32.ChecksumIEEE(bad[len(bad)-payload:]))
			if _, err := persist.Decode(bad); err == nil {
				t.Errorf("%s: a snapshot whose row 3 holds %s loaded", family, name)
			}
		}
	}
}
