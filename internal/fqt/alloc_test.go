package fqt

import (
	"testing"

	"metricindex/internal/testutil"
)

// TestFQTKNNAllocs is the allocation witness of the best-first kNN: a
// query allocates its collector and answer, its query distances and the
// growth of one core.MinHeap — a constant, whatever the tree's size — and
// nothing per node it queues.
func TestFQTKNNAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	idx, ds := newIntFQT(t, 20000)
	const budget = 16
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := idx.KNNSearch(q, 10); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("query %d: kNN allocated %.0f times; budget %d", qs, allocs, budget)
		}
	}
}
