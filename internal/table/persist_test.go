package table_test

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
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
		w := store.NewWriter()
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

// TestPagedTableRejectsCraftedPayloads crafts Omni-seq and DiskEPT*
// payloads that pass every checksum — the pages are edited through the
// pager before the volume image is written — and requires the loader to
// refuse each, one subtest per rejection. Accepted, the header counts
// panicked the first query (index out of range), a pivot outside the pool
// panicked the first range query (a nil pivot), and a directory entry no
// record holds made Len count 301 rows for 300 and a later Delete
// tombstone another object's row.
func TestPagedTableRejectsCraftedPayloads(t *testing.T) {
	u16 := func(v uint16) []byte { return binary.LittleEndian.AppendUint16(nil, v) }
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	// edit describes one crafted page: record rec (−1: the page header of
	// the record's page) gets bytes at offset off.
	type edit struct {
		rec, off int
		bytes    func(f *store.RowFile, pager *store.Pager) []byte
	}
	recordID := func(f *store.RowFile, pager *store.Pager, rec int) uint32 {
		pg, err := pager.Read(f.PageIDs()[rec/f.PerPage()])
		if err != nil {
			t.Fatal(err)
		}
		return binary.LittleEndian.Uint32(pg[2+rec%f.PerPage()*f.Width():])
	}
	cases := []struct {
		name     string
		families []string
		edits    []edit
		payload  func(p []byte) // edits the payload after encoding
	}{
		{"page counting more records than it holds", []string{"Omni-seq", "DiskEPT*"},
			[]edit{{-1, 0, func(*store.RowFile, *store.Pager) []byte { return u16(60000) }}}, nil},
		{"page counting fewer records than the file's rows", []string{"Omni-seq", "DiskEPT*"},
			[]edit{{-1, 0, func(f *store.RowFile, _ *store.Pager) []byte { return u16(uint16(f.PerPage() - 1)) }}}, nil},
		{"live id outside the dataset", []string{"Omni-seq", "DiskEPT*"},
			[]edit{{3, 0, func(*store.RowFile, *store.Pager) []byte { return u32(5000) }}}, nil},
		{"live id stored twice", []string{"Omni-seq", "DiskEPT*"},
			[]edit{{3, 0, func(f *store.RowFile, p *store.Pager) []byte { return u32(recordID(f, p, 7)) }}}, nil},
		{"directory entry whose record is a tombstone", []string{"Omni-seq", "DiskEPT*"},
			[]edit{{4, 0, func(*store.RowFile, *store.Pager) []byte { return u32(^uint32(0)) }}}, nil},
		{"directory entry for another object's record", []string{"Omni-seq", "DiskEPT*"},
			[]edit{
				{0, 0, func(f *store.RowFile, p *store.Pager) []byte { return u32(recordID(f, p, 1)) }},
				{1, 0, func(f *store.RowFile, p *store.Pager) []byte { return u32(recordID(f, p, 0)) }},
			}, nil},
		{"pivot outside the pool", []string{"DiskEPT*"},
			[]edit{{3, 4, func(*store.RowFile, *store.Pager) []byte { return u32(1 << 20) }}}, nil},
		{"row width above the candidate count", []string{"DiskEPT*"}, nil,
			func(p []byte) { binary.LittleEndian.PutUint32(p[2:], 1000) }},
	}
	for _, tc := range cases {
		for _, family := range tc.families {
			t.Run(family+"/"+tc.name, func(t *testing.T) {
				ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
				pager := store.NewPager(1024)
				idx := goldenBuildOn(t, family, ds, pager)
				f := idx.(interface{ Table() *table.Table }).Table().File()
				// Every edit's bytes are made before any is written.
				var writes [][]byte
				for _, e := range tc.edits {
					writes = append(writes, e.bytes(f, pager))
				}
				for i, e := range tc.edits {
					pid, at := f.PageIDs()[max(e.rec, 0)/f.PerPage()], 0
					if e.rec >= 0 {
						at = 2 + e.rec%f.PerPage()*f.Width() + e.off
					}
					if err := pager.WriteAt(pid, at, writes[i]); err != nil {
						t.Fatal(err)
					}
				}
				w := store.NewWriter()
				if err := idx.EncodeSnapshot(w); err != nil {
					t.Fatal(err)
				}
				payload := w.Bytes()
				if tc.payload != nil {
					tc.payload(payload)
				}
				load, _ := persist.LoaderFor(family)
				if _, _, err := load(ds, store.NewReader(payload)); err == nil {
					t.Fatalf("the crafted payload loaded")
				}
			})
		}
	}
}

// TestTableSnapshotRejectsForeignPivot writes a LAESA payload over L2
// vectors whose first pivot value is a Word and requires the load to
// fail. Accepted, the first kNN query panicked converting the Word to a
// Vector. The check is Reader.Pivots in DecodeBlock, which CPT shares.
func TestTableSnapshotRejectsForeignPivot(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 7)
	idx := goldenBuild(t, "LAESA", ds)
	idx.(interface{ Table() *table.Table }).Table().Pivots()[0] = core.Word("foreign")
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatal(err)
	}
	load, _ := persist.LoaderFor("LAESA")
	if _, _, err := load(ds, store.NewReader(w.Bytes())); err == nil {
		t.Fatal("LAESA loaded a payload whose first pivot is a Word over L2 vectors")
	}
}
