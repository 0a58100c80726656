// Package rtree tests the R-tree family of internal/mtree — the
// OmniR-tree's R-tree over pivot-space points, with its objects in a
// RAF — on its own: Hilbert bulk load, dynamic insert, delete by point,
// and the page-size floor.
package rtree

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// searcher adapts a tree to testutil.Searcher by computing each query's
// point.
type searcher struct{ tr *mtree.Tree }

func (s searcher) RangeSearch(q core.Object, r float64) ([]int, error) {
	return s.tr.RangeSearch(q, r)
}

func (s searcher) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return s.tr.KNNSearch(q, k)
}

// pivotValues spreads dims pivots over src.
func pivotValues(src *core.Dataset, dims int) []core.Object {
	var pv []core.Object
	for _, id := range testutil.SpreadPivots(src, dims) {
		pv = append(pv, src.Object(id))
	}
	return pv
}

// bulk loads an R-tree over every live object of ds on 512-byte pages.
func bulk(t *testing.T, ds *core.Dataset, pv []core.Object) *mtree.Tree {
	t.Helper()
	p := store.NewPager(512)
	tr, err := mtree.BulkRTree(ds, p, pv, store.NewRAF(p), 200, 0)
	if err != nil {
		t.Fatalf("BulkRTree(dims=%d): %v", len(pv), err)
	}
	return tr
}

// check validates the tree and compares range and kNN answers with a
// linear scan.
func check(t *testing.T, tr *mtree.Tree, ds *core.Dataset, seed int64) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Len() != ds.Count() {
		t.Fatalf("Len = %d, want %d", tr.Len(), ds.Count())
	}
	for qs := seed; qs < seed+3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, searcher{tr}, ds, q, r)
		}
		testutil.CheckKNN(t, searcher{tr}, ds, q, 10)
	}
}

func TestBulkLoadSearch(t *testing.T) {
	for _, dims := range []int{1, 3, 5, 9} {
		ds := testutil.VectorDataset(2000, 4, 100, core.L2{}, int64(dims))
		check(t, bulk(t, ds, pivotValues(ds, dims)), ds, int64(dims))
	}
}

func TestDynamicInsertSearch(t *testing.T) {
	src := testutil.VectorDataset(1500, 4, 100, core.L2{}, 9)
	ds := core.NewDataset(core.NewSpace(core.L2{}), nil)
	tr := bulk(t, ds, pivotValues(src, 4))
	for _, o := range src.Objects() {
		if err := tr.Insert(ds.Insert(o)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	check(t, tr, ds, 11)
}

func TestDeleteThenSearch(t *testing.T) {
	ds := testutil.VectorDataset(800, 4, 100, core.L2{}, 13)
	tr := bulk(t, ds, pivotValues(ds, 3))
	for id := 0; id < 800; id += 3 {
		if err := tr.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	check(t, tr, ds, 17)
	if err := tr.Delete(0); err == nil {
		t.Fatal("double delete should fail")
	}
}

func TestMixedBulkAndDynamic(t *testing.T) {
	ds := testutil.VectorDataset(1000, 4, 100, core.L2{}, 19)
	tr := bulk(t, ds, pivotValues(ds, 5))
	for _, o := range testutil.VectorDataset(500, 4, 100, core.L2{}, 23).Objects() {
		if err := tr.Insert(ds.Insert(o)); err != nil {
			t.Fatal(err)
		}
	}
	check(t, tr, ds, 29)
}

func TestPageTooSmall(t *testing.T) {
	ds := testutil.VectorDataset(50, 4, 100, core.L2{}, 31)
	p := store.NewPager(64)
	if _, err := mtree.BulkRTree(ds, p, pivotValues(ds, 9), store.NewRAF(p), 200, 0); err == nil {
		t.Fatal("9-dim entries cannot fit a 64-byte page")
	}
}
