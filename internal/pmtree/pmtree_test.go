package pmtree

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

func build(t *testing.T, ds *core.Dataset, pageSize int) (*mtree.Tree, *store.Pager) {
	t.Helper()
	p := store.NewPager(pageSize)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := mtree.NewPMTree(ds, p, pv, 7, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, p
}

func TestPMTreeMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 7)
	idx, _ := build(t, ds, 1024)
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		for _, k := range []int{1, 7, 40, 400} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
}

func TestPMTreeWords(t *testing.T) {
	ds := testutil.WordDataset(250, 11)
	idx, _ := build(t, ds, 512)
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 1, 2, 4} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 9)
	}
}

func TestPMTreeInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 13)
	idx, _ := build(t, ds, 1024)
	for id := 0; id < 200; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 15)
	if idx.Len() != ds.Count() {
		t.Fatalf("Len=%d want %d", idx.Len(), ds.Count())
	}
}

func TestPMTreeStats(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 17)
	idx, p := build(t, ds, 1024)
	p.ResetStats()
	q := testutil.RandomQuery(ds, 1)
	if _, err := idx.KNNSearch(q, 5); err != nil {
		t.Fatal(err)
	}
	if idx.PageAccesses() == 0 {
		t.Fatal("PM-tree queries must cost page accesses")
	}
	if idx.DiskBytes() == 0 {
		t.Fatal("PM-tree stores everything on disk")
	}
	if idx.Name() != "PM-tree" {
		t.Fatalf("Name = %q", idx.Name())
	}
}
