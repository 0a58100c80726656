package omni

import (
	"fmt"
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// member abstracts the three family members for shared tests.
type member interface {
	testutil.Searcher
	Insert(id int) error
	Delete(id int) error
	Name() string
	Len() int
	PageAccesses() int64
	ResetStats()
	DiskBytes() int64
}

func builders(t *testing.T, ds *core.Dataset) map[string]member {
	t.Helper()
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	out := make(map[string]member)
	{
		p := store.NewPager(512)
		idx, err := mtree.NewOmniRTree(ds, p, pv, 250, 0)
		if err != nil {
			t.Fatalf("mtree.NewOmniRTree: %v", err)
		}
		out["rtree"] = idx
	}
	{
		p := store.NewPager(512)
		idx, err := table.NewOmniSeq(ds, p, pv, 0)
		if err != nil {
			t.Fatalf("table.NewOmniSeq: %v", err)
		}
		out["seq"] = idx
	}
	{
		p := store.NewPager(512)
		idx, err := NewBPlus(ds, p, pv, 0)
		if err != nil {
			t.Fatalf("NewBPlus: %v", err)
		}
		out["bplus"] = idx
	}
	return out
}

func TestOmniFamilyMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(350, 4, 100, core.L2{}, 7)
	for name, idx := range builders(t, ds) {
		t.Run(name, func(t *testing.T) {
			for qs := int64(0); qs < 3; qs++ {
				q := testutil.RandomQuery(ds, qs)
				for _, r := range testutil.Radii(ds, q) {
					testutil.CheckRange(t, idx, ds, q, r)
				}
				for _, k := range []int{1, 7, 40, 350} {
					testutil.CheckKNN(t, idx, ds, q, k)
				}
			}
		})
	}
}

func TestOmniFamilyWords(t *testing.T) {
	ds := testutil.WordDataset(250, 11)
	for name, idx := range builders(t, ds) {
		t.Run(name, func(t *testing.T) {
			q := testutil.RandomQuery(ds, 3)
			for _, r := range []float64{0, 1, 2, 4} {
				testutil.CheckRange(t, idx, ds, q, r)
			}
			testutil.CheckKNN(t, idx, ds, q, 9)
		})
	}
}

func TestOmniFamilyInsertDelete(t *testing.T) {
	for _, name := range []string{"rtree", "seq", "bplus"} {
		ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 13)
		idx := builders(t, ds)[name]
		// The members with a Validate (the R-tree, the sequential file's
		// table) check their invariants after every update.
		validate := func(t *testing.T, after string) {
			t.Helper()
			if v, ok := idx.(interface{ Validate() error }); ok {
				if err := v.Validate(); err != nil {
					t.Fatalf("after %s: %v", after, err)
				}
			}
		}
		t.Run(name, func(t *testing.T) {
			validate(t, "build")
			for id := 0; id < 200; id += 4 {
				if err := idx.Delete(id); err != nil {
					t.Fatalf("Delete(%d): %v", id, err)
				}
				if err := ds.Delete(id); err != nil {
					t.Fatal(err)
				}
				validate(t, fmt.Sprintf("Delete(%d)", id))
			}
			for i := 0; i < 30; i++ {
				id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
				if err := idx.Insert(id); err != nil {
					t.Fatalf("Insert(%d): %v", id, err)
				}
				validate(t, fmt.Sprintf("Insert(%d)", id))
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
		})
	}
}

func TestOmniRTreeCheaperIOThanSeq(t *testing.T) {
	// §5.2: the sequential file "incurs substantial I/O during search as
	// the data is not clustered"; the OmniR-tree must beat it on a
	// selective query.
	ds := testutil.VectorDataset(600, 4, 100, core.L2{}, 21)
	m := builders(t, ds)
	q := testutil.RandomQuery(ds, 5)
	cost := func(idx member) int64 {
		idx.ResetStats()
		if _, err := idx.RangeSearch(q, 3); err != nil {
			t.Fatal(err)
		}
		return idx.PageAccesses()
	}
	rt, seq := cost(m["rtree"]), cost(m["seq"])
	if rt >= seq {
		t.Fatalf("OmniR-tree PA (%d) should beat Omni-seq (%d) on selective queries", rt, seq)
	}
}

func TestOmniNames(t *testing.T) {
	ds := testutil.VectorDataset(60, 3, 100, core.L2{}, 1)
	m := builders(t, ds)
	if m["rtree"].Name() != "OmniR-tree" || m["seq"].Name() != "Omni-seq" || m["bplus"].Name() != "OmniB+-tree" {
		t.Fatalf("unexpected names: %q %q %q", m["rtree"].Name(), m["seq"].Name(), m["bplus"].Name())
	}
	for _, idx := range m {
		if idx.DiskBytes() == 0 {
			t.Fatalf("%s must report disk usage", idx.Name())
		}
	}
}

// TestOmniParallelBuildMatchesSequential checks that the parallel
// pivot-table precompute yields family members identical to sequential
// builds (same answers, same disk footprint).
func TestOmniParallelBuildMatchesSequential(t *testing.T) {
	seqDS := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	parDS := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(seqDS, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	type pair struct{ seq, par core.Index }
	pairs := map[string]pair{}
	{
		sp, pp := store.NewPager(512), store.NewPager(512)
		s, err := mtree.NewOmniRTree(seqDS, sp, pv, 300, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := mtree.NewOmniRTree(parDS, pp, pv, 300, 4)
		if err != nil {
			t.Fatal(err)
		}
		pairs["rtree"] = pair{s, p}
	}
	{
		sp, pp := store.NewPager(512), store.NewPager(512)
		s, err := table.NewOmniSeq(seqDS, sp, pv, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := table.NewOmniSeq(parDS, pp, pv, 4)
		if err != nil {
			t.Fatal(err)
		}
		pairs["seq"] = pair{s, p}
	}
	{
		sp, pp := store.NewPager(512), store.NewPager(512)
		s, err := NewBPlus(seqDS, sp, pv, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewBPlus(parDS, pp, pv, 4)
		if err != nil {
			t.Fatal(err)
		}
		pairs["bplus"] = pair{s, p}
	}
	for name, pr := range pairs {
		if s, p := pr.seq.DiskBytes(), pr.par.DiskBytes(); s != p {
			t.Fatalf("%s: disk footprint differs: %d vs %d", name, s, p)
		}
		for qs := int64(0); qs < 3; qs++ {
			q := testutil.RandomQuery(seqDS, qs)
			a, err := pr.seq.RangeSearch(q, 30)
			if err != nil {
				t.Fatal(err)
			}
			b, err := pr.par.RangeSearch(q, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: MRQ answers differ: %v vs %v", name, a, b)
			}
		}
	}
}
