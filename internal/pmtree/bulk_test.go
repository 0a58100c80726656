package pmtree

import (
	"bytes"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// TestPMTreeEquivalence runs the shared metamorphic harness over the
// bulk-loaded PM-tree: workers=1 and workers=4 run the same partitioned
// bulk load, so every answer must be identical, correct against a linear
// scan, and invariant under insert-then-delete round trips.
func TestPMTreeEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(false, 400, 7) {
		build := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
			return mtree.NewPMTree(ds, store.NewPager(1024), ed.Pivots, 7, workers)
		}
		testutil.CheckEquivalence(t, ed, build, testutil.EquivOptions{})
	}
}

// TestPMTreeBulkPageImageIdentical proves the PM-tree bulk load writes a
// byte-identical volume for every worker count, and that the bulk-loaded
// tree satisfies the M-tree/PM-tree structural invariants.
func TestPMTreeBulkPageImageIdentical(t *testing.T) {
	ds := testutil.VectorDataset(900, 4, 100, core.L2{}, 7)
	pv := testutil.SpreadPivots(ds, 4)
	seqPager := store.NewPager(1024)
	seq, err := mtree.NewPMTree(ds, seqPager, pv, 7, 1)
	if err != nil {
		t.Fatalf("sequential bulk New: %v", err)
	}
	if err := seq.Validate(); err != nil {
		t.Fatalf("bulk-loaded PM-tree invariants: %v", err)
	}
	for _, workers := range []int{-1, 2, 4} {
		parPager := store.NewPager(1024)
		if _, err := mtree.NewPMTree(ds, parPager, pv, 7, workers); err != nil {
			t.Fatalf("parallel bulk New(workers=%d): %v", workers, err)
		}
		if seqPager.Pages() != parPager.Pages() {
			t.Fatalf("workers=%d: page counts differ: %d vs %d", workers, seqPager.Pages(), parPager.Pages())
		}
		for i := 0; i < seqPager.Pages(); i++ {
			pa, err := seqPager.Read(store.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			pb, err := parPager.Read(store.PageID(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pa, pb) {
				t.Fatalf("workers=%d: page %d differs from the sequential bulk load", workers, i)
			}
		}
	}
}

// TestPMTreeBulkMatchesInsertionAnswers cross-checks the two build
// strategies: the bulk-loaded tree clusters pages differently than the
// insertion build, but MRQ answers (sorted id sets) must coincide.
func TestPMTreeBulkMatchesInsertionAnswers(t *testing.T) {
	ds := testutil.VectorDataset(600, 4, 100, core.L2{}, 9)
	pv := testutil.SpreadPivots(ds, 4)
	ins, err := mtree.NewPMTree(ds, store.NewPager(1024), pv, 7, 0)
	if err != nil {
		t.Fatalf("insertion New: %v", err)
	}
	blk, err := mtree.NewPMTree(ds, store.NewPager(1024), pv, 7, 4)
	if err != nil {
		t.Fatalf("bulk New: %v", err)
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			a, err := ins.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			b, err := blk.RangeSearch(q, r)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("MRQ(r=%v) sizes differ: %d vs %d", r, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("MRQ(r=%v) differs at %d: %d vs %d", r, i, a[i], b[i])
				}
			}
		}
	}
}
