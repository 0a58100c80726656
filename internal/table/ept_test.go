package table

import (
	"math"
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// eptKinds are the in-memory per-row families, in the order of their
// payload's variant byte.
var eptKinds = []string{"EPT", "EPT*"}

func buildEPT(t *testing.T, ds *core.Dataset, kind string) *Index {
	t.Helper()
	idx, err := newEPT(kind, ds, nil, EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
	if err != nil {
		t.Fatalf("build %s: %v", kind, err)
	}
	return idx
}

// TestEPTEquivalence runs the shared metamorphic harness over EPT and
// EPT* (parallel == sequential answers, linear-scan correctness,
// insert-then-delete invariance) on vectors and words.
func TestEPTEquivalence(t *testing.T) {
	for _, kind := range eptKinds {
		for _, ed := range testutil.EquivDatasets(false, 250, 7) {
			builder := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
				return newEPT(kind, ds, nil, EPTOptions{
					L: 4, Radius: 10,
					Sel: pivot.Options{Seed: 3, SampleSize: 128}, Workers: workers,
				})
			}
			testutil.CheckEquivalence(t, ed, builder, testutil.EquivOptions{})
		}
	}
}

func TestEPTNames(t *testing.T) {
	ds := testutil.VectorDataset(60, 3, 100, core.L2{}, 7)
	for _, kind := range eptKinds {
		if got := buildEPT(t, ds, kind).Name(); got != kind {
			t.Fatalf("Name = %q, want %s", got, kind)
		}
	}
}

func TestEPTInsertDelete(t *testing.T) {
	for _, kind := range eptKinds {
		ds := testutil.VectorDataset(150, 4, 100, core.L2{}, 9)
		idx := buildEPT(t, ds, kind)
		for id := 0; id < 150; id += 5 {
			if err := idx.Delete(id); err != nil {
				t.Fatalf("Delete(%d): %v", id, err)
			}
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
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
	}
}

func TestEPTStarBuildCostExceedsEPT(t *testing.T) {
	mk := func(kind string) int64 {
		ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 7)
		ds.Space().ResetCompDists()
		buildEPT(t, ds, kind)
		return ds.Space().CompDists()
	}
	eptCost, starCost := mk("EPT"), mk("EPT*")
	if starCost <= eptCost {
		t.Fatalf("EPT* construction (%d compdists) should exceed EPT (%d), per Table 4", starCost, eptCost)
	}
}

func TestEPTErrors(t *testing.T) {
	ds := testutil.VectorDataset(50, 3, 100, core.L2{}, 7)
	if _, err := NewEPTStar(ds, EPTOptions{L: 0}); err == nil {
		t.Fatal("L=0 must fail")
	}
	idx := buildEPT(t, ds, "EPT*")
	if err := idx.Delete(999); err == nil {
		t.Fatal("Delete(999) should fail")
	}
	if err := idx.Insert(3); err == nil {
		t.Fatal("duplicate Insert should fail")
	}
}

func TestEPTWordsDataset(t *testing.T) {
	ds := testutil.WordDataset(200, 5)
	idx := buildEPT(t, ds, "EPT*")
	q := testutil.RandomQuery(ds, 3)
	for _, r := range []float64{0, 1, 3} {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 9)
}

func TestDiskEPTMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	p := store.NewPager(512)
	idx, err := NewDiskEPTStar(ds, p, EPTOptions{L: 4, Sel: pivot.Options{Seed: 3}})
	if err != nil {
		t.Fatalf("NewDiskEPTStar: %v", err)
	}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		for _, k := range []int{1, 9, 50, 300} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
	if idx.Name() != "DiskEPT*" {
		t.Fatalf("Name = %q", idx.Name())
	}
	if idx.DiskBytes() == 0 || idx.PageAccesses() == 0 {
		t.Fatal("DiskEPT* must live on disk")
	}
}

func TestDiskEPTInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(180, 4, 100, core.L2{}, 9)
	p := store.NewPager(512)
	idx, err := NewDiskEPTStar(ds, p, EPTOptions{L: 3, Sel: pivot.Options{Seed: 5}})
	if err != nil {
		t.Fatalf("NewDiskEPTStar: %v", err)
	}
	for id := 0; id < 180; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 13)
	if idx.Len() != ds.Count() {
		t.Fatalf("Len=%d want %d", idx.Len(), ds.Count())
	}
}

func TestDiskEPTFewerCompdistsThanOmniStyleScan(t *testing.T) {
	// The point of the extension: EPT*'s per-object pivots prune better
	// than a shared pivot set of the same size on a disk table.
	ds := testutil.VectorDataset(500, 8, 100, core.L2{}, 21)
	p := store.NewPager(1024)
	idx, err := NewDiskEPTStar(ds, p, EPTOptions{L: 5, Sel: pivot.Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomQuery(ds, 5)
	ds.Space().ResetCompDists()
	if _, err := idx.RangeSearch(q, 10); err != nil {
		t.Fatal(err)
	}
	cost := ds.Space().CompDists()
	if cost >= int64(ds.Count()) {
		t.Fatalf("DiskEPT* spent %d compdists, no better than a scan of %d", cost, ds.Count())
	}
}

// TestEPTParallelBuildMatchesSequential checks that a parallel build
// (EPTOptions.Workers) produces a table byte-for-byte identical to the
// sequential build for EPT and EPT*.
func TestEPTParallelBuildMatchesSequential(t *testing.T) {
	for _, v := range eptKinds {
		seqDS := testutil.VectorDataset(250, 4, 100, core.L2{}, 7)
		parDS := testutil.VectorDataset(250, 4, 100, core.L2{}, 7)
		opts := EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}}
		seq, err := newEPT(v, seqDS, nil, opts)
		if err != nil {
			t.Fatalf("sequential build %s: %v", v, err)
		}
		opts.Workers = 4
		par, err := newEPT(v, parDS, nil, opts)
		if err != nil {
			t.Fatalf("parallel build %s: %v", v, err)
		}
		if !reflect.DeepEqual(seq.tab.IDs(), par.tab.IDs()) {
			t.Fatalf("%s: parallel build ids differ", v)
		}
		if !reflect.DeepEqual(seq.tab.Refs(), par.tab.Refs()) {
			t.Fatalf("%s: parallel build pivot columns differ", v)
		}
		if !reflect.DeepEqual(seq.tab.PoolIDs(), par.tab.PoolIDs()) {
			t.Fatalf("%s: parallel build pivot pools differ", v)
		}
		if !reflect.DeepEqual(seq.tab.Cols(), par.tab.Cols()) {
			t.Fatalf("%s: parallel build distances differ", v)
		}
		for row, id := range seq.tab.IDs() {
			if seq.tab.Row(int(id)) != row || par.tab.Row(int(id)) != row {
				t.Fatalf("%s: parallel build row map differs", v)
			}
		}
	}
}

// TestDiskEPTParallelBuildMatchesSequential checks the disk-based EPT*'s
// parallel assignment produces the same on-disk layout and answers as a
// sequential build.
func TestDiskEPTParallelBuildMatchesSequential(t *testing.T) {
	seqDS := testutil.VectorDataset(250, 4, 100, core.L2{}, 7)
	parDS := testutil.VectorDataset(250, 4, 100, core.L2{}, 7)
	opts := EPTOptions{L: 4, Sel: pivot.Options{Seed: 3, SampleSize: 128}}
	seq, err := NewDiskEPTStar(seqDS, store.NewPager(1024), opts)
	if err != nil {
		t.Fatalf("sequential NewDiskEPTStar: %v", err)
	}
	opts.Workers = 4
	par, err := NewDiskEPTStar(parDS, store.NewPager(1024), opts)
	if err != nil {
		t.Fatalf("parallel NewDiskEPTStar: %v", err)
	}
	if s, p := seq.DiskBytes(), par.DiskBytes(); s != p {
		t.Fatalf("disk footprint differs: %d vs %d", s, p)
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

// TestEPTStarInfiniteCoordinate builds EPT* and DiskEPT* over L1
// vectors one of which holds a +Inf coordinate, then inserts a second
// such object. Every PSA score of an object at infinite distance from
// the probes is NaN, so the greedy assignment found no pivot for it and
// the build indexed row −1. Both indexes must build, insert and answer
// exactly.
func TestEPTStarInfiniteCoordinate(t *testing.T) {
	ds := testutil.VectorDataset(500, 8, 100, core.L1{}, 5)
	ds.Object(17).(core.Vector)[3] = math.Inf(1)
	star, err := NewEPTStar(ds, EPTOptions{L: 5})
	if err != nil {
		t.Fatalf("NewEPTStar: %v", err)
	}
	disk, err := NewDiskEPTStar(ds, store.NewPager(4096), EPTOptions{L: 5})
	if err != nil {
		t.Fatalf("NewDiskEPTStar: %v", err)
	}
	o := append(core.Vector(nil), ds.Object(40).(core.Vector)...)
	o[0] = math.Inf(1)
	id := ds.Insert(o)
	for _, idx := range []core.Index{star, disk} {
		if err := idx.Insert(id); err != nil {
			t.Fatalf("%s: Insert: %v", idx.Name(), err)
		}
		for qs := int64(0); qs < 3; qs++ {
			q := testutil.RandomQuery(ds, qs)
			for _, r := range testutil.Radii(ds, q) {
				testutil.CheckRange(t, idx, ds, q, r)
			}
			for _, k := range []int{1, 10, ds.Count()} {
				testutil.CheckKNN(t, idx, ds, q, k)
			}
		}
	}
}
