// Package bkt_test holds the Burkhard-Keller tree's behaviour tests. The
// tree is the BKT family of internal/ptree; its build-identity,
// concurrency and allocation tests are ptree's, table-driven over the
// three families.
package bkt_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/ptree"
	"metricindex/internal/testutil"
)

func newIntBKT(t *testing.T, n int) (*ptree.Tree, *core.Dataset) {
	t.Helper()
	ds := testutil.IntVectorDataset(n, 4, 100, 7)
	idx, err := ptree.NewBKT(ds, ptree.Options{Seed: 3, MaxDistance: 100})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, ds
}

func TestBKTRejectsContinuousMetric(t *testing.T) {
	ds := testutil.VectorDataset(20, 2, 10, core.L2{}, 1)
	if _, err := ptree.NewBKT(ds, ptree.Options{MaxDistance: 10}); err == nil {
		t.Fatal("BKT must reject continuous metrics")
	}
}

// TestBKTEquivalence runs the shared metamorphic harness: parallel build
// answers identical to sequential, both correct against a linear scan,
// and invariant under insert-then-delete round trips — on integer
// vectors and words.
func TestBKTEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(true, 400, 7) {
		build := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
			return ptree.NewBKT(ds, ptree.Options{Seed: 3, MaxDistance: ed.MaxDistance, Workers: workers})
		}
		testutil.CheckEquivalence(t, ed, build, testutil.EquivOptions{})
	}
}

func TestBKTDeleteThenInsertMixed(t *testing.T) {
	idx, ds := newIntBKT(t, 200)
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
	if idx.Len() != ds.Count() {
		t.Fatalf("Len = %d, want %d", idx.Len(), ds.Count())
	}
}

func TestBKTDeletePivotKeepsRouting(t *testing.T) {
	idx, ds := newIntBKT(t, 150)
	// Delete every object in turn until half are gone, including pivots.
	for id := 0; id < 75; id++ {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	q := testutil.RandomQuery(ds, 8)
	for _, r := range []float64{0, 10, 40} {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 10)
}

func TestBKTDuplicateObjects(t *testing.T) {
	objs := make([]core.Object, 100)
	for i := range objs {
		objs[i] = core.IntVector{int32(i % 3), 1} // heavy duplication
	}
	ds := core.NewDataset(core.NewSpace(core.IntLInf{}), objs)
	idx, err := ptree.NewBKT(ds, ptree.Options{Seed: 1, MaxDistance: 3, LeafCapacity: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := core.IntVector{0, 1}
	testutil.CheckRange(t, idx, ds, q, 0)
	testutil.CheckRange(t, idx, ds, q, 1)
	testutil.CheckKNN(t, idx, ds, q, 50)
}

func TestBKTStats(t *testing.T) {
	idx, _ := newIntBKT(t, 100)
	if idx.PageAccesses() != 0 || idx.DiskBytes() != 0 {
		t.Fatal("BKT must report zero disk activity")
	}
	if idx.MemBytes() <= 0 {
		t.Fatal("BKT must report positive memory")
	}
	if idx.Name() != "BKT" {
		t.Fatalf("Name = %q", idx.Name())
	}
}
