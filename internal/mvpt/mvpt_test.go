// Package mvpt_test holds the vantage-point trees' behaviour tests. VPT
// and MVPT are the MVPT family of internal/ptree; its build-identity,
// concurrency and allocation tests are ptree's, table-driven over the
// three families.
package mvpt_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/testutil"
)

func newVPT(t *testing.T, n, arity int) (*ptree.Tree, *core.Dataset) {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := ptree.NewMVPT(ds, pv, ptree.Options{Arity: arity})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, ds
}

func TestMVPTRangeMatchesBruteForce(t *testing.T) {
	for _, arity := range []int{2, 3, 5, 8} {
		idx, ds := newVPT(t, 400, arity)
		for qs := int64(0); qs < 4; qs++ {
			q := testutil.RandomQuery(ds, qs)
			for _, r := range testutil.Radii(ds, q) {
				testutil.CheckRange(t, idx, ds, q, r)
			}
		}
	}
}

func TestMVPTKNNMatchesBruteForce(t *testing.T) {
	for _, arity := range []int{2, 5} {
		idx, ds := newVPT(t, 400, arity)
		for qs := int64(0); qs < 4; qs++ {
			q := testutil.RandomQuery(ds, qs)
			for _, k := range []int{1, 4, 25, 400} {
				testutil.CheckKNN(t, idx, ds, q, k)
			}
		}
	}
}

func TestMVPTNames(t *testing.T) {
	vpt, _ := newVPT(t, 50, 2)
	if vpt.Name() != "VPT" {
		t.Fatalf("arity-2 Name = %q, want VPT", vpt.Name())
	}
	mvpt, _ := newVPT(t, 50, 5)
	if mvpt.Name() != "MVPT" {
		t.Fatalf("arity-5 Name = %q, want MVPT", mvpt.Name())
	}
}

// TestMVPTEquivalence runs the shared metamorphic harness (parallel ==
// sequential answers, linear-scan correctness, insert-then-delete
// invariance) on vectors and words.
func TestMVPTEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(false, 400, 7) {
		build := func(ds *core.Dataset, workers int) (testutil.EquivIndex, error) {
			return ptree.NewMVPT(ds, ed.Pivots, ptree.Options{Workers: workers})
		}
		testutil.CheckEquivalence(t, ed, build, testutil.EquivOptions{})
	}
}

func TestMVPTDeleteThenInsertMixed(t *testing.T) {
	idx, ds := newVPT(t, 250, 5)
	for id := 0; id < 250; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 17)
	if idx.Len() != ds.Count() {
		t.Fatalf("Len = %d, want %d", idx.Len(), ds.Count())
	}
}

func TestMVPTDuplicates(t *testing.T) {
	objs := make([]core.Object, 120)
	for i := range objs {
		objs[i] = core.Vector{float64(i % 2), 1}
	}
	ds := core.NewDataset(core.NewSpace(core.L2{}), objs)
	pv := []int{0, 1}
	idx, err := ptree.NewMVPT(ds, pv, ptree.Options{LeafCapacity: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := core.Vector{0, 1}
	testutil.CheckRange(t, idx, ds, q, 0)
	testutil.CheckRange(t, idx, ds, q, 0.5)
	testutil.CheckKNN(t, idx, ds, q, 70)
}

func TestMVPTHeavyTiesTerminate(t *testing.T) {
	// Regression: a run of equal pivot distances used to extend one band
	// over the whole node, recursing forever. A distribution with a few
	// distinct points repeated many times must build (and stay correct).
	objs := make([]core.Object, 600)
	for i := range objs {
		objs[i] = core.Vector{float64(i % 4), float64(i % 3)}
	}
	ds := core.NewDataset(core.NewSpace(core.L2{}), objs)
	idx, err := ptree.NewMVPT(ds, []int{0, 1, 2}, ptree.Options{LeafCapacity: 8})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := core.Vector{1, 1}
	testutil.CheckRange(t, idx, ds, q, 0)
	testutil.CheckRange(t, idx, ds, q, 1.5)
	testutil.CheckKNN(t, idx, ds, q, 200)
	// Ties straddling bands: every duplicate must still be deletable.
	for id := 0; id < 100; id++ {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	testutil.CheckRange(t, idx, ds, q, 1.5)
}

func TestMVPTErrors(t *testing.T) {
	ds := testutil.VectorDataset(30, 2, 10, core.L2{}, 1)
	if _, err := ptree.NewMVPT(ds, nil, ptree.Options{}); err == nil {
		t.Fatal("no pivots must fail")
	}
	idx, err := ptree.NewMVPT(ds, []int{0, 1}, ptree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(999); err == nil {
		t.Fatal("Delete(999) should fail")
	}
}
