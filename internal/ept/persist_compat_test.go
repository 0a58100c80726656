package ept

import (
	"reflect"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/testutil"
)

// TestEPTLoadsVersion1Payload hand-encodes the version-1 (row-major)
// in-memory EPT payload — dataset pivot ids interleaved per row — for
// both variants and checks the registered loader rebuilds the dense pool
// and the struct-of-arrays columns with identical answers.
func TestEPTLoadsVersion1Payload(t *testing.T) {
	for _, variant := range []Variant{Original, Star} {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		idx, err := New(ds, variant, Options{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
		if err != nil {
			t.Fatalf("New(%v): %v", variant, err)
		}
		w := persist.NewWriter()
		w.U16(1)
		w.U8(uint8(idx.variant))
		w.U32(uint32(idx.l))
		ids, refs, cols := idx.tab.IDs(), idx.tab.Refs(), idx.tab.Cols()
		w.Int32s(ids)
		rows := len(ids)
		pids := make([]int32, rows*idx.l)
		dists := make([]float64, rows*idx.l)
		for c := 0; c < idx.l; c++ {
			for row := 0; row < rows; row++ {
				pids[row*idx.l+c] = idx.tab.PoolIDs()[refs[c][row]]
				dists[row*idx.l+c] = cols[c][row]
			}
		}
		w.Int32s(pids)
		w.Floats(dists)
		encodePivotVals(w, idx.pivotVal)
		if variant == Original {
			encodeGroups(w, idx.groups)
		} else {
			encodePSA(w, idx.psa)
		}

		restoredIdx, _, err := loadMemEPT(ds, persist.NewReader(w.Bytes()))
		if err != nil {
			t.Fatalf("load v1 payload (%v): %v", variant, err)
		}
		restored := restoredIdx.(*EPT)
		if !reflect.DeepEqual(restored.tab.Cols(), cols) {
			t.Fatalf("%v: v1 load did not transpose to the original distance columns", variant)
		}
		// The pool is rebuilt in first-reference order, which the row-major
		// walk visits identically, so the dense indices must match too.
		if !reflect.DeepEqual(restored.tab.PoolIDs(), idx.tab.PoolIDs()) {
			t.Fatalf("%v: v1 load rebuilt a different pivot pool", variant)
		}
		if !reflect.DeepEqual(restored.tab.Refs(), refs) {
			t.Fatalf("%v: v1 load rebuilt different pivot columns", variant)
		}
		if !restored.tab.FlatArmed() {
			t.Fatalf("%v: v1 load did not arm the flat path", variant)
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
				t.Fatalf("%v: MRQ answers differ after v1 load: %v vs %v", variant, a, b)
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
				t.Fatalf("%v: MkNNQ answers differ after v1 load: %v vs %v", variant, an, bn)
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
	opts := Options{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}}
	for name, craft := range map[string]func(e *EPT){
		"EPT with a fifth group": func(e *EPT) {
			g := e.groups
			g.L++
			g.IDs, g.Vals, g.Mu = append(g.IDs, g.IDs[0]), append(g.Vals, g.Vals[0]), append(g.Mu, g.Mu[0])
		},
		"EPT* with three candidates": func(e *EPT) {
			st := e.psa
			st.CandIDs, st.CandVals = st.CandIDs[:3], st.CandVals[:3]
			for i := range st.ProbeCand {
				st.ProbeCand[i] = st.ProbeCand[i][:3]
			}
		},
	} {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		variant := Original
		if name[3] == '*' {
			variant = Star
		}
		e, err := New(ds, variant, opts)
		if err != nil {
			t.Fatal(err)
		}
		craft(e)
		w := persist.NewWriter()
		if err := e.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadMemEPT(ds, persist.NewReader(w.Bytes())); err == nil {
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
	for _, variant := range []Variant{Original, Star} {
		ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
		e, err := New(ds, variant, Options{L: 3, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 64}})
		if err != nil {
			t.Fatal(err)
		}
		if variant == Original {
			e.groups.Vals[0][0] = core.Word("foreign")
		} else {
			e.psa.CandVals[0] = core.Word("foreign")
		}
		w := persist.NewWriter()
		if err := e.EncodeSnapshot(w); err != nil {
			t.Fatal(err)
		}
		if _, _, err := loadMemEPT(ds, persist.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s loaded a payload with a Word pivot candidate over L2 vectors", e.Name())
		}
	}
}
