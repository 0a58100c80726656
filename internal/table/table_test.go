package table

import (
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/testutil"
)

func newVectorLAESA(t *testing.T, n int) (*Index, *core.Dataset) {
	t.Helper()
	ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewLAESA(ds, pv)
	if err != nil {
		t.Fatalf("NewLAESA: %v", err)
	}
	return idx, ds
}

func TestLAESARangeMatchesBruteForce(t *testing.T) {
	idx, ds := newVectorLAESA(t, 300)
	for qs := int64(0); qs < 5; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
	}
}

func TestLAESAKNNMatchesBruteForce(t *testing.T) {
	idx, ds := newVectorLAESA(t, 300)
	for qs := int64(0); qs < 5; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, k := range []int{1, 3, 10, 50, 300, 500} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
}

func TestLAESAInsertDelete(t *testing.T) {
	idx, ds := newVectorLAESA(t, 120)
	q := testutil.RandomQuery(ds, 9)

	// Delete a third of the objects (index first, then dataset).
	for id := 0; id < 120; id += 3 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatalf("dataset Delete(%d): %v", id, err)
		}
	}
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 10)

	// Reinsert fresh objects into the freed slots.
	for i := 0; i < 40; i++ {
		id := ds.Insert(core.Vector{float64(i), float64(i), 1, 2})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 25)
}

func TestLAESADeleteUnknownFails(t *testing.T) {
	idx, _ := newVectorLAESA(t, 20)
	if err := idx.Delete(999); err == nil {
		t.Fatal("Delete(999) should fail")
	}
	if err := idx.Insert(5); err == nil {
		t.Fatal("duplicate Insert(5) should fail")
	}
}

func TestLAESAPivotDeletionSafe(t *testing.T) {
	idx, ds := newVectorLAESA(t, 100)
	p := idx.Pivots()[0]
	if err := idx.Delete(p); err != nil {
		t.Fatalf("Delete(pivot %d): %v", p, err)
	}
	if err := ds.Delete(p); err != nil {
		t.Fatalf("dataset Delete(%d): %v", p, err)
	}
	q := testutil.RandomQuery(ds, 1)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 7)
}

// TestLAESAVector32 runs a LAESA over float32 vectors end to end: the
// flat path must arm with the float32 mirror, answers must match brute
// force (which goes through scalar Distance on the same widened
// kernels), and updates must keep the mirror in lockstep.
func TestLAESAVector32(t *testing.T) {
	for _, m := range []core.Metric{core.L1{}, core.L2{}, core.LInf{}} {
		ds := testutil.Vector32Dataset(300, 4, 100, m, 7)
		pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
		if err != nil {
			t.Fatalf("HFI: %v", err)
		}
		idx, err := NewLAESA(ds, pv)
		if err != nil {
			t.Fatalf("NewLAESA: %v", err)
		}
		if !idx.tab.FlatArmed() {
			t.Fatalf("%s: flat path not armed on a Vector32 dataset", m.Name())
		}
		for qs := int64(0); qs < 4; qs++ {
			q := testutil.RandomQuery(ds, qs)
			for _, r := range testutil.Radii(ds, q) {
				testutil.CheckRange(t, idx, ds, q, r)
			}
			testutil.CheckKNN(t, idx, ds, q, 10)
		}
		for id := 0; id < 60; id += 3 {
			if err := idx.Delete(id); err != nil {
				t.Fatalf("Delete(%d): %v", id, err)
			}
			if err := ds.Delete(id); err != nil {
				t.Fatalf("dataset Delete(%d): %v", id, err)
			}
		}
		for i := 0; i < 20; i++ {
			id := ds.Insert(core.Vector32{float32(i), float32(i), 1, 2})
			if err := idx.Insert(id); err != nil {
				t.Fatalf("Insert(%d): %v", id, err)
			}
		}
		if !idx.tab.FlatArmed() {
			t.Fatalf("%s: flat path lost across updates", m.Name())
		}
		q := testutil.RandomQuery(ds, 9)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 15)
	}
}

func TestLAESAWords(t *testing.T) {
	ds := testutil.WordDataset(250, 11)
	pv, err := pivot.HFI(ds, 3, pivot.Options{Seed: 5})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewLAESA(ds, pv)
	if err != nil {
		t.Fatalf("NewLAESA: %v", err)
	}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 1, 2, 5} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 8)
	}
}

func TestLAESAStats(t *testing.T) {
	idx, _ := newVectorLAESA(t, 64)
	if idx.PageAccesses() != 0 || idx.DiskBytes() != 0 {
		t.Fatal("LAESA must report zero disk activity")
	}
	if idx.MemBytes() <= 0 {
		t.Fatal("LAESA must report positive memory size")
	}
	if idx.Len() != 64 {
		t.Fatalf("Len = %d, want 64", idx.Len())
	}
	if idx.Name() != "LAESA" {
		t.Fatalf("Name = %q", idx.Name())
	}
}

func TestAESAMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(120, 3, 50, core.L2{}, 13)
	idx, err := NewAESA(ds)
	if err != nil {
		t.Fatalf("NewAESA: %v", err)
	}
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		for _, k := range []int{1, 5, 20, 120} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
}

func TestAESAFewerCompdistsThanLAESA(t *testing.T) {
	ds := testutil.VectorDataset(200, 3, 50, core.L2{}, 17)
	aesa, err := NewAESA(ds)
	if err != nil {
		t.Fatalf("NewAESA: %v", err)
	}
	pv, _ := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	laesa, err := NewLAESA(ds, pv)
	if err != nil {
		t.Fatalf("NewLAESA: %v", err)
	}
	q := testutil.RandomQuery(ds, 5)

	ds.Space().ResetCompDists()
	if _, err := aesa.KNNSearch(q, 5); err != nil {
		t.Fatal(err)
	}
	aCost := ds.Space().CompDists()

	ds.Space().ResetCompDists()
	if _, err := laesa.KNNSearch(q, 5); err != nil {
		t.Fatal(err)
	}
	lCost := ds.Space().CompDists()

	if aCost > lCost {
		t.Fatalf("AESA used %d compdists, LAESA %d; AESA must not be worse", aCost, lCost)
	}
}

func TestAESAInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(80, 3, 50, core.L2{}, 19)
	idx, err := NewAESA(ds)
	if err != nil {
		t.Fatalf("NewAESA: %v", err)
	}
	for id := 0; id < 80; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		id := ds.Insert(core.Vector{float64(i * 3), 1, 2})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 12)
}

func TestParallelLAESAMatchesSequential(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 23)
	pv, _ := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	seq, err := NewLAESA(ds, pv)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewLAESAParallel(ds, pv, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.Len() != seq.Len() {
		t.Fatalf("Len %d vs %d", par.Len(), seq.Len())
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			a, _ := seq.RangeSearch(q, r)
			b, _ := par.RangeSearch(q, r)
			if len(a) != len(b) {
				t.Fatalf("r=%v: %d vs %d results", r, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("r=%v: id %d differs", r, i)
				}
			}
		}
		testutil.CheckKNN(t, par, ds, q, 20)
	}
	// The parallel build must count exactly the same compdists.
	ds2 := testutil.VectorDataset(400, 4, 100, core.L2{}, 23)
	pv2, _ := pivot.HFI(ds2, 5, pivot.Options{Seed: 3})
	ds2.Space().ResetCompDists()
	if _, err := NewLAESAParallel(ds2, pv2, 8); err != nil {
		t.Fatal(err)
	}
	if got, want := ds2.Space().CompDists(), int64(400*5); got != want {
		t.Fatalf("parallel build compdists %d, want %d", got, want)
	}
	if _, err := NewLAESAParallel(ds, nil, 2); err == nil {
		t.Fatal("no pivots must fail")
	}
}

// TestTableMirrorLifecycle follows the coordinate mirror through what the
// churn property test cannot see from outside: emptying and refilling the
// table re-arms the flat path, and appending an object the mirror cannot
// hold (a wrong type; no built-in metric would accept it, so it enters as
// a bare row and no query runs while it is in) drops the mirror for good
// with the rest of the row state still in step — the table then answers
// exactly through the object path.
func TestTableMirrorLifecycle(t *testing.T) {
	idx, ds := newVectorLAESA(t, 120)
	tab := idx.tab
	valid := func(what string, armed bool) {
		t.Helper()
		if err := tab.Validate(); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
		if tab.FlatArmed() != armed {
			t.Fatalf("after %s: flat path armed = %v, want %v", what, tab.FlatArmed(), armed)
		}
	}
	valid("build", true)
	ids := ds.LiveIDs()
	for _, id := range ids {
		if err := idx.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	valid("emptying", true)
	for _, id := range ids {
		if err := idx.Insert(id); err != nil {
			t.Fatal(err)
		}
	}
	valid("refilling", true)

	misfit := ds.Len() + 1
	tab.Append(misfit, core.Word("misfit"), nil, make([]float64, len(tab.cols)))
	valid("appending a misfit", false)
	if err := tab.Remove(misfit); err != nil {
		t.Fatal(err)
	}
	valid("removing the misfit", false)
	if err := idx.Insert(ds.Insert(core.Vector{1, 2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	valid("an insert after the drop", false)
	q := testutil.RandomQuery(ds, 3)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 9)
}

// TestValidateMirrorWithNaNCoordinate checks that Validate compares the
// coordinate mirror with the objects bit for bit: a row holding a NaN
// coordinate is mirrored faithfully although its self-distance is NaN,
// while a row that mirrors another object is still caught.
func TestValidateMirrorWithNaNCoordinate(t *testing.T) {
	objs := make([]core.Object, 40)
	for i := range objs {
		objs[i] = core.Vector{float64(i), float64(i * i % 17), float64(40 - i)}
	}
	objs[7].(core.Vector)[1] = math.NaN()
	ds := core.NewDataset(core.NewSpace(core.L1{}), objs)
	idx, err := NewLAESA(ds, []int{0, 13, 26})
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.tab
	if !tab.FlatArmed() {
		t.Fatal("the flat path is not armed")
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("a healthy table with a NaN coordinate: %v", err)
	}
	row := tab.Row(7)
	tab.flat.Set(row, core.Vector{7, 0, 33})
	if err := tab.Validate(); err == nil {
		t.Fatal("Validate accepted a mirror row holding another object")
	}
}
