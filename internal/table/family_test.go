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
// family on the shared pivot table.
func TestInsertInvalidIDErrors(t *testing.T) {
	ds := testutil.VectorDataset(40, 3, 100, core.L2{}, 31)
	aesa, err := table.NewAESA(ds)
	if err != nil {
		t.Fatal(err)
	}
	indexes := []core.Index{aesa}
	for _, family := range []string{"LAESA", "EPT", "EPT*", "CPT"} {
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
