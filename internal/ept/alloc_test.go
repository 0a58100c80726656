package ept

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// eptKNNAllocBudget bounds the allocations of one uncached EPT kNN
// query (measured 9/op: query-pivot distances, the per-group scan
// state, the candidate heap, the sorted answer, and sort.Slice
// internals). Headroom covers toolchain drift; per-candidate allocation
// regressions blow far past it.
const eptKNNAllocBudget = 12

func TestEPTKNNSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := New(ds, Original, Options{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q, 10); err != nil {
			panic(err)
		}
	})
	if allocs > eptKNNAllocBudget {
		t.Fatalf("EPT.KNNSearch allocated %.1f times per query; budget is %d", allocs, eptKNNAllocBudget)
	}
}

// TestEPTFlatKNNHotLoopZeroAllocs witnesses that the flat-path kNN scan
// (pool batch, indexed column sweep, flat verification) runs without
// allocating once the scratch pool is warm, with and without a
// pushed-down accept test; see the LAESA twin.
func TestEPTFlatKNNHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := New(ds, Original, Options{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.tab.FlatArmed() {
		t.Fatal("flat path not armed on a pure-vector dataset")
	}
	var q core.Object = ds.Objects()[42]
	if _, err := idx.KNNSearch(q, 10); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	h := core.NewKNNHeap(10)
	for name, accept := range map[string]core.Accept{"unfiltered": nil, "accept": func(id int) bool { return id%3 != 0 }} {
		allocs := testing.AllocsPerRun(200, func() {
			h.Reset(10)
			if err := idx.tab.ScanKNN(h, q, accept); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: flat kNN hot loop allocated %.1f times per query; want 0", name, allocs)
		}
	}
}

// TestEPTRangeAllocsOnce witnesses that a range query allocates exactly
// its answer, here over 1 000 ids: the ids are collected and radix-ordered
// in the scratch and copied out once; see the LAESA twin.
func TestEPTRangeAllocsOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(3000, 4, 100, core.L2{}, 7)
	idx, err := New(ds, Original, Options{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	const r = 75
	if ids, err := idx.RangeSearch(q, r); err != nil || len(ids) < 1000 { // warms the scratch pool
		t.Fatalf("the witness query answers %d ids (%v); want at least 1 000", len(ids), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := idx.RangeSearch(q, r); err != nil {
			panic(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("EPT.RangeSearch allocated %.1f times per query; want 1, the answer", allocs)
	}
}
