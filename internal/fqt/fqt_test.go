package fqt

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

func newIntFQT(t *testing.T, n int) (*ptree.Tree, *core.Dataset) {
	t.Helper()
	ds := testutil.IntVectorDataset(n, 4, 100, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := ptree.NewFQT(ds, pv, ptree.Options{MaxDistance: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, ds
}

func TestFQTRejectsContinuousMetric(t *testing.T) {
	ds := testutil.VectorDataset(20, 2, 10, core.L2{}, 1)
	if _, err := ptree.NewFQT(ds, []int{0, 1}, ptree.Options{MaxDistance: 10}); err == nil {
		t.Fatal("FQT must reject continuous metrics")
	}
}

// TestFQTEquivalence runs the shared metamorphic harness: parallel build
// answers identical to sequential, both correct against a linear scan,
// and invariant under insert-then-delete round trips — on integer
// vectors and words.
func TestFQTEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(true, 400, 7) {
		build := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
			return ptree.NewFQT(ds, ed.Pivots, ptree.Options{MaxDistance: ed.MaxDistance, Workers: workers})
		}
		testutil.CheckEquivalence(t, ed, build, testutil.EquivOptions{})
	}
}

func TestFQTDeleteThenInsertMixed(t *testing.T) {
	idx, ds := newIntFQT(t, 200)
	for id := 0; id < 200; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		id := ds.Insert(core.IntVector{int32(i), 50, 50, 50})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range []float64{0, 5, 20, 120} {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 17)
}

func TestFQAMatchesBruteForce(t *testing.T) {
	ds := testutil.IntVectorDataset(300, 4, 100, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewFQA(ds, pv)
	if err != nil {
		t.Fatalf("NewFQA: %v", err)
	}
	for qs := int64(0); qs < 5; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 2, 10, 35, 120} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		for _, k := range []int{1, 4, 25, 300} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
}

func TestFQAInsertDelete(t *testing.T) {
	ds := testutil.IntVectorDataset(150, 3, 50, 9)
	pv, _ := pivot.HFI(ds, 3, pivot.Options{Seed: 3})
	idx, err := NewFQA(ds, pv)
	if err != nil {
		t.Fatalf("NewFQA: %v", err)
	}
	for id := 0; id < 150; id += 3 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		id := ds.Insert(core.IntVector{int32(i), 25, 25})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range []float64{0, 3, 12, 60} {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 11)
}

// TestFQASnapshotRejectsForeignPivot writes an FQA payload over integer
// vectors whose first pivot value is a Word and requires the load to
// fail. Accepted, the first query measured an integer vector against the
// Word.
func TestFQASnapshotRejectsForeignPivot(t *testing.T) {
	ds := testutil.IntVectorDataset(100, 4, 100, 7)
	idx, err := NewFQA(ds, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	idx.pivotVals[0] = core.Word("foreign")
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadFQA(ds, store.NewReader(w.Bytes())); err == nil {
		t.Fatal("FQA loaded a payload whose first pivot is a Word over integer vectors")
	}
}
