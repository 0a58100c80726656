package table

import (
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// TestLAESALoadsVersion1Payload hand-encodes the version-1 (row-major)
// LAESA payload of an index built fresh, loads it through the registered
// loader, and checks the restored table and its answers are identical —
// the compatibility promise of the version-2 column-major bump.
func TestLAESALoadsVersion1Payload(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewWriter()
	w.U16(1)
	w.Ints(idx.tab.pivotIDs)
	w.Objects(idx.tab.pivots)
	w.Int32s(idx.tab.ids)
	rows := len(idx.tab.ids)
	dists := make([]float64, rows*len(idx.tab.cols))
	for i, col := range idx.tab.cols {
		for row, d := range col {
			dists[row*len(idx.tab.cols)+i] = d
		}
	}
	w.Floats(dists)

	restoredIdx, _, err := loadIndex("LAESA", ds, store.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("load v1 payload: %v", err)
	}
	restored := restoredIdx.(*Index)
	if !reflect.DeepEqual(restored.tab.cols, idx.tab.cols) {
		t.Fatal("v1 load did not transpose to the original columns")
	}
	if !restored.tab.FlatArmed() {
		t.Fatal("v1 load did not arm the flat path")
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		a, err := idx.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("MRQ answers differ after v1 load: %v vs %v", a, b)
		}
		an, err := idx.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := restored.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("MkNNQ answers differ after v1 load: %v vs %v", an, bn)
		}
	}
}

// TestCPTLoadsVersion1Payload hand-encodes the version-1 (row-major) CPT
// payload of a freshly built index and checks the registered loader
// restores an identical table with identical answers.
func TestCPTLoadsVersion1Payload(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewCPT(ds, store.NewPager(1024), pv, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := store.NewWriter()
	w.U16(1)
	w.Blob(idx.pager.Serialize())
	if err := idx.tree.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	w.Ints(idx.tab.PivotIDs())
	w.Objects(idx.tab.Pivots())
	w.Int32s(idx.tab.IDs())
	l := len(idx.tab.Cols())
	dists := make([]float64, len(idx.tab.IDs())*l)
	for i, col := range idx.tab.Cols() {
		for row, d := range col {
			dists[row*l+i] = d
		}
	}
	w.Floats(dists)

	restoredIdx, _, err := loadIndex("CPT", ds, store.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("load v1 payload: %v", err)
	}
	restored := restoredIdx.(*Index)
	if !reflect.DeepEqual(restored.tab.Cols(), idx.tab.Cols()) {
		t.Fatal("v1 load did not transpose to the original columns")
	}
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		a, err := idx.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.RangeSearch(q, 30)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("MRQ answers differ after v1 load: %v vs %v", a, b)
		}
		an, err := idx.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := restored.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(an, bn) {
			t.Fatalf("MkNNQ answers differ after v1 load: %v vs %v", an, bn)
		}
	}
}

// TestEPTLoadsVersion1Payload hand-encodes the version-1 (row-major)
// in-memory EPT payload — dataset pivot ids interleaved per row — for
// EPT and EPT* and checks the registered loader rebuilds the dense pool
// and the struct-of-arrays columns with identical answers.
func TestEPTLoadsVersion1Payload(t *testing.T) {
	for variant, kind := range eptKinds {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		idx, err := newEPT(kind, ds, nil, EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
		if err != nil {
			t.Fatalf("build %s: %v", kind, err)
		}
		a := idx.assign
		w := store.NewWriter()
		w.U16(1)
		w.U8(uint8(variant))
		w.U32(uint32(a.l))
		ids, refs, cols := idx.tab.IDs(), idx.tab.Refs(), idx.tab.Cols()
		w.Int32s(ids)
		rows := len(ids)
		pids := make([]int32, rows*a.l)
		dists := make([]float64, rows*a.l)
		for c := 0; c < a.l; c++ {
			for row := 0; row < rows; row++ {
				pids[row*a.l+c] = idx.tab.PoolIDs()[refs[c][row]]
				dists[row*a.l+c] = cols[c][row]
			}
		}
		w.Int32s(pids)
		w.Floats(dists)
		encodePivotVals(w, a.vals)
		if a.groups != nil {
			encodeGroups(w, a.groups)
		} else {
			encodePSA(w, a.psa)
		}

		restoredIdx, _, err := loadEPT(kind, ds, store.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("load v1 payload (%s): %v", kind, err)
		}
		restored := restoredIdx.(*Index)
		if restored.Name() != kind {
			t.Fatalf("v1 payload of %s loaded as %s", kind, restored.Name())
		}
		if !reflect.DeepEqual(restored.tab.Cols(), cols) {
			t.Fatalf("%s: v1 load did not transpose to the original distance columns", kind)
		}
		// The pool is rebuilt in first-reference order, which the row-major
		// walk visits identically, so the dense indices must match too.
		if !reflect.DeepEqual(restored.tab.PoolIDs(), idx.tab.PoolIDs()) {
			t.Fatalf("%s: v1 load rebuilt a different pivot pool", kind)
		}
		if !reflect.DeepEqual(restored.tab.Refs(), refs) {
			t.Fatalf("%s: v1 load rebuilt different pivot columns", kind)
		}
		if !restored.tab.FlatArmed() {
			t.Fatalf("%s: v1 load did not arm the flat path", kind)
		}
		for qs := int64(0); qs < 3; qs++ {
			q := testutil.RandomQuery(ds, qs)
			a, err := idx.RangeSearch(q, 30)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.RangeSearch(q, 30)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: MRQ answers differ after v1 load: %v vs %v", kind, a, b)
			}
			an, err := idx.KNNSearch(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			bn, err := restored.KNNSearch(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(an, bn) {
				t.Fatalf("%s: MkNNQ answers differ after v1 load: %v vs %v", kind, an, bn)
			}
		}
	}
}

// TestLoadRejectsRowWidth crafts in-memory EPT and EPT* payloads whose
// row width the pivot assignment cannot fill — an EPT whose groups number
// other than l, an EPT* with fewer candidates than l — and requires the
// loader to refuse them: an insert after the load would assign a row of
// another width than the table's.
func TestLoadRejectsRowWidth(t *testing.T) {
	opts := EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}}
	for name, craft := range map[string]func(a *assignment){
		"EPT with a fifth group": func(a *assignment) {
			g := a.groups
			g.L++
			g.IDs, g.Vals, g.Mu = append(g.IDs, g.IDs[0]), append(g.Vals, g.Vals[0]), append(g.Mu, g.Mu[0])
		},
		"EPT* with three candidates": func(a *assignment) {
			st := a.psa
			st.CandIDs, st.CandVals = st.CandIDs[:3], st.CandVals[:3]
			for i := range st.ProbeCand {
				st.ProbeCand[i] = st.ProbeCand[i][:3]
			}
		},
	} {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		kind := "EPT"
		if name[3] == '*' {
			kind = "EPT*"
		}
		e, err := newEPT(kind, ds, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		craft(e.assign)
		w := store.NewWriter()
		if err := e.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadEPT(kind, ds, store.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: the payload loaded", name)
		}
	}
}

// TestEPTLoadRejectsForeignPivotCandidate writes an EPT payload whose
// first group pivot, and an EPT* payload whose first PSA candidate, is a
// Word over L2 vectors, and requires each load to fail. Accepted, the
// first insert panicked converting the Word to a Vector. DiskEPT* reads
// its PSA state through the same decoder.
func TestEPTLoadRejectsForeignPivotCandidate(t *testing.T) {
	for _, kind := range eptKinds {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		e, err := newEPT(kind, ds, nil, EPTOptions{L: 3, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 64}})
		if err != nil {
			t.Fatal(err)
		}
		if a := e.assign; a.groups != nil {
			a.groups.Vals[0][0] = core.Word("foreign")
		} else {
			a.psa.CandVals[0] = core.Word("foreign")
		}
		w := store.NewWriter()
		if err := e.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadEPT(kind, ds, store.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s loaded a payload with a Word pivot candidate over L2 vectors", e.Name())
		}
	}
}

// TestEPTLoadRejectsOtherFamily files an EPT* payload under kind EPT,
// and an EPT payload under EPT*, and requires each load to fail: the
// variant byte must agree with the kind the snapshot names, or the
// restored index would answer as the other family under this one's
// name. Each payload still loads under its own kind.
func TestEPTLoadRejectsOtherFamily(t *testing.T) {
	for i, kind := range eptKinds {
		other := eptKinds[1-i]
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		e, err := newEPT(kind, ds, nil, EPTOptions{L: 3, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 64}})
		if err != nil {
			t.Fatal(err)
		}
		w := store.NewWriter()
		if err := e.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if idx, _, err := loadIndex(other, ds, store.NewReader(w.Bytes())); err == nil {
			t.Errorf("a %s payload filed under %s loaded as %s", kind, other, idx.Name())
		}
		idx, _, err := loadIndex(kind, ds, store.NewReader(w.Bytes()))
		if err != nil || idx.Name() != kind {
			t.Fatalf("a %s payload under its own kind: %v", kind, err)
		}
	}
}
