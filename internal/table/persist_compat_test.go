package table

import (
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// TestLAESALoadsVersion1Payload hand-encodes the version-1 (row-major)
// LAESA payload of an index built fresh, loads it through the registered
// loader, and checks the restored table and its answers are identical —
// the compatibility promise of the version-2 column-major bump.
func TestLAESALoadsVersion1Payload(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	w := persist.NewWriter()
	w.U16(1)
	w.Ints(idx.tab.pivotIDs)
	w.Objects(idx.tab.pivots)
	w.Int32s(idx.tab.ids)
	rows := len(idx.tab.ids)
	dists := make([]float64, rows*len(idx.tab.cols))
	for i, col := range idx.tab.cols {
		for row, d := range col {
			dists[row*len(idx.tab.cols)+i] = d
		}
	}
	w.Floats(dists)

	restoredIdx, _, err := loadIndex("LAESA", ds, persist.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("load v1 payload: %v", err)
	}
	restored := restoredIdx.(*Index)
	if !reflect.DeepEqual(restored.tab.cols, idx.tab.cols) {
		t.Fatal("v1 load did not transpose to the original columns")
	}
	if !restored.tab.FlatArmed() {
		t.Fatal("v1 load did not arm the flat path")
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		a, err := idx.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("MRQ answers differ after v1 load: %v vs %v", a, b)
		}
		an, err := idx.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := restored.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("MkNNQ answers differ after v1 load: %v vs %v", an, bn)
		}
	}
}

// TestCPTLoadsVersion1Payload hand-encodes the version-1 (row-major) CPT
// payload of a freshly built index and checks the registered loader
// restores an identical table with identical answers.
func TestCPTLoadsVersion1Payload(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewCPT(ds, store.NewPager(1024), pv, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := persist.NewWriter()
	w.U16(1)
	w.Blob(idx.pager.Serialize())
	if err := idx.tree.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	w.Ints(idx.tab.PivotIDs())
	w.Objects(idx.tab.Pivots())
	w.Int32s(idx.tab.IDs())
	l := len(idx.tab.Cols())
	dists := make([]float64, len(idx.tab.IDs())*l)
	for i, col := range idx.tab.Cols() {
		for row, d := range col {
			dists[row*l+i] = d
		}
	}
	w.Floats(dists)

	restoredIdx, _, err := loadIndex("CPT", ds, persist.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("load v1 payload: %v", err)
	}
	restored := restoredIdx.(*Index)
	if !reflect.DeepEqual(restored.tab.Cols(), idx.tab.Cols()) {
		t.Fatal("v1 load did not transpose to the original columns")
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		a, err := idx.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("MRQ answers differ after v1 load: %v vs %v", a, b)
		}
		an, err := idx.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := restored.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("MkNNQ answers differ after v1 load: %v vs %v", an, bn)
		}
	}
}
