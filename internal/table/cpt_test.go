package table_test

import (
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

func buildCPT(t *testing.T, ds *core.Dataset) (*table.Index, *store.Pager) {
	t.Helper()
	p := store.NewPager(1024)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := table.NewCPT(ds, p, pv, 7, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, p
}

func TestCPTMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 7)
	idx, _ := buildCPT(t, ds)
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

func TestCPTWords(t *testing.T) {
	ds := testutil.WordDataset(250, 11)
	idx, _ := buildCPT(t, ds)
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 1, 2, 4} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 9)
	}
}

func TestCPTQueriesCostPageAccesses(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 9)
	idx, p := buildCPT(t, ds)
	p.ResetStats()
	q := testutil.RandomQuery(ds, 1)
	if _, err := idx.RangeSearch(q, 20); err != nil {
		t.Fatal(err)
	}
	if p.PageAccesses() == 0 {
		t.Fatal("CPT verification must read M-tree pages")
	}
	if idx.DiskBytes() == 0 {
		t.Fatal("CPT stores objects on disk")
	}
	if idx.MemBytes() == 0 {
		t.Fatal("CPT keeps the distance table in memory")
	}
}

func TestCPTInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 13)
	idx, _ := buildCPT(t, ds)
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
	if err := idx.Delete(99999); err == nil {
		t.Fatal("delete of absent id should fail")
	}
}

// TestCPTParallelBuildMatchesSequential checks that the parallel
// distance-table precompute (Options.Workers) yields an index identical
// to a sequential build, table and answers alike.
func TestCPTParallelBuildMatchesSequential(t *testing.T) {
	seqDS := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	parDS := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(seqDS, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	seq, err := table.NewCPT(seqDS, store.NewPager(1024), pv, 7, 0)
	if err != nil {
		t.Fatalf("sequential New: %v", err)
	}
	par, err := table.NewCPT(parDS, store.NewPager(1024), pv, 7, 4)
	if err != nil {
		t.Fatalf("parallel New: %v", err)
	}
	if !reflect.DeepEqual(seq.Table().IDs(), par.Table().IDs()) {
		t.Fatal("parallel build ids differ")
	}
	if !reflect.DeepEqual(seq.Table().Cols(), par.Table().Cols()) {
		t.Fatal("parallel build distances differ")
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(seqDS, qs)
		a, err := seq.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("MRQ answers differ: %v vs %v", a, b)
		}
	}
}
