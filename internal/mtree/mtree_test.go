package mtree

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

func buildTree(t *testing.T, ds *core.Dataset, numPivots int, pageSize int) (*Tree, *store.Pager) {
	t.Helper()
	p := store.NewPager(pageSize)
	var pv []int
	if numPivots > 0 {
		var err error
		pv, err = pivot.HFI(ds, numPivots, pivot.Options{Seed: 3})
		if err != nil {
			t.Fatalf("HFI: %v", err)
		}
	}
	tr, err := Bulk(ds, p, pv, Options{NumPivots: numPivots, Seed: 7}, BulkOptions{})
	if err != nil {
		t.Fatalf("Bulk: %v", err)
	}
	return tr, p
}

type searcherAdapter struct {
	tr *Tree
}

func (s searcherAdapter) RangeSearch(q core.Object, r float64) ([]int, error) {
	return s.tr.RangeSearch(q, r)
}
func (s searcherAdapter) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return s.tr.KNNSearch(q, k)
}
func (s searcherAdapter) Insert(id int) error { return s.tr.Insert(id) }
func (s searcherAdapter) Delete(id int) error { return s.tr.Delete(id) }

func TestMTreeRangeMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	tr, _ := buildTree(t, ds, 0, 512)
	s := searcherAdapter{tr}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, s, ds, q, r)
		}
	}
}

func TestMTreeKNNMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	tr, _ := buildTree(t, ds, 0, 512)
	s := searcherAdapter{tr}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, k := range []int{1, 5, 30, 500} {
			testutil.CheckKNN(t, s, ds, q, k)
		}
	}
}

func TestPMTreeMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 9)
	tr, _ := buildTree(t, ds, 4, 1024)
	s := searcherAdapter{tr}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, s, ds, q, r)
		}
		for _, k := range []int{1, 8, 50} {
			testutil.CheckKNN(t, s, ds, q, k)
		}
	}
}

func TestPMTreeWords(t *testing.T) {
	ds := testutil.WordDataset(300, 11)
	tr, _ := buildTree(t, ds, 3, 512)
	s := searcherAdapter{tr}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 1, 2, 4} {
			testutil.CheckRange(t, s, ds, q, r)
		}
		testutil.CheckKNN(t, s, ds, q, 7)
	}
}

func TestPMTreeRingsPruneMoreThanMTree(t *testing.T) {
	// The PM-tree's rings must reduce distance computations vs the plain
	// M-tree on the same data (the premise of §5.1).
	mk := func(numPivots, pageSize int) int64 {
		ds := testutil.VectorDataset(600, 4, 100, core.L2{}, 21)
		tr, _ := buildTree(t, ds, numPivots, pageSize)
		q := testutil.RandomQuery(ds, 3)
		ds.Space().ResetCompDists()
		if _, err := tr.RangeSearch(q, 8); err != nil {
			t.Fatal(err)
		}
		return ds.Space().CompDists()
	}
	plain := mk(0, 1024)
	pm := mk(4, 1024)
	if pm >= plain {
		t.Fatalf("PM-tree compdists (%d) should beat M-tree (%d)", pm, plain)
	}
}

func TestMTreeInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 13)
	tr, _ := buildTree(t, ds, 0, 512)
	for id := 0; id < 300; id += 3 {
		if err := tr.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
		if err := tr.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	s := searcherAdapter{tr}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, s, ds, q, r)
	}
	testutil.CheckKNN(t, s, ds, q, 20)
	if tr.Len() != ds.Count() {
		t.Fatalf("Len = %d, want %d", tr.Len(), ds.Count())
	}
}

func TestMTreeReadObject(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 15)
	tr, p := buildTree(t, ds, 0, 512)
	p.ResetStats()
	o, err := tr.ReadObject(42)
	if err != nil {
		t.Fatalf("ReadObject: %v", err)
	}
	want := ds.Object(42).(core.Vector)
	got := o.(core.Vector)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReadObject(42) = %v, want %v", got, want)
		}
	}
	if p.PageAccesses() == 0 {
		t.Fatal("ReadObject must cost a page access")
	}
	if _, err := tr.ReadObject(99999); err == nil {
		t.Fatal("ReadObject of absent id should fail")
	}
}

func TestMTreePageTooSmall(t *testing.T) {
	ds := testutil.VectorDataset(50, 64, 100, core.L2{}, 17) // 517-byte objects
	if _, err := Bulk(ds, store.NewPager(512), nil, Options{}, BulkOptions{}); err == nil {
		t.Fatal("inserting 517-byte objects into 512-byte pages must fail with advice")
	}
}

func TestMTreeDuplicateObjects(t *testing.T) {
	objs := make([]core.Object, 150)
	for i := range objs {
		objs[i] = core.Vector{float64(i % 2), 1}
	}
	ds := core.NewDataset(core.NewSpace(core.L2{}), objs)
	tr, _ := buildTree(t, ds, 0, 512)
	s := searcherAdapter{tr}
	q := core.Vector{0, 1}
	testutil.CheckRange(t, s, ds, q, 0)
	testutil.CheckRange(t, s, ds, q, 0.5)
	testutil.CheckKNN(t, s, ds, q, 80)
}

func TestMTreeInvariantsAfterBuildAndUpdates(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 29)
	tr, _ := buildTree(t, ds, 0, 512)
	if err := tr.Validate(); err != nil {
		t.Fatalf("after build: %v", err)
	}
	for id := 0; id < 100; id += 2 {
		if err := tr.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		id := ds.Insert(core.Vector{float64(i), 10, 20, 30})
		if err := tr.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after updates: %v", err)
	}
}

func TestPMTreeInvariants(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 31)
	tr, _ := buildTree(t, ds, 4, 1024)
	if err := tr.Validate(); err != nil {
		t.Fatalf("PM-tree invariants: %v", err)
	}
}
