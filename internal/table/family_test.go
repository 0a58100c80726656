package table_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// TestInsertInvalidIDErrors is the regression test for the nil-object
// panic: inserting a deleted or out-of-range id must return an error, not
// pass nil into the metric's type assertion — for AESA and for every
// family on the shared pivot table, paged or not.
func TestInsertInvalidIDErrors(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 31)
	aesa, err := table.NewAESA(ds)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []core.Index{aesa}
	for _, family := range []string{"LAESA", "EPT", "EPT*", "CPT", "Omni-seq", "DiskEPT*"} {
		indexes = append(indexes, goldenBuild(t, family, ds))
	}
	victim := 11
	for _, idx := range indexes {
		if err := idx.Delete(victim); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Delete(victim); err != nil {
		t.Fatal(err)
	}
	for _, idx := range indexes {
		if err := idx.Insert(victim); err == nil {
			t.Errorf("%s: Insert of deleted id should error", idx.Name())
		}
		if err := idx.Insert(1000); err == nil {
			t.Errorf("%s: Insert of out-of-range id should error", idx.Name())
		}
		if err := idx.Insert(-2); err == nil {
			t.Errorf("%s: Insert of negative id should error", idx.Name())
		}
	}
}

// TestPagedRangeAllocs witnesses that a range query over a paged table
// allocates nothing when no candidate survives the sweep: every page is
// read and decoded into the scratch's block columns, and the answer is
// empty.
func TestPagedRangeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 7)
	var q core.Object = core.Vector{1000, 1000, 1000, 1000}
	for _, family := range []string{"Omni-seq", "DiskEPT*"} {
		idx := goldenBuild(t, family, ds)
		if ids, err := idx.RangeSearch(q, 1); err != nil || len(ids) != 0 { // warms the scratch pool
			t.Fatalf("%s: the witness query answers %v (%v); want nothing", family, ids, err)
		}
		idx.ResetStats()
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := idx.RangeSearch(q, 1); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a range query verifying no candidate allocated %.1f times; want 0", family, allocs)
		}
		if idx.PageAccesses() == 0 {
			t.Errorf("%s: the range query read no page", family)
		}
	}
}
