package pmtree

import (
	"testing"

	"metricindex/internal/mtree"
	"metricindex/internal/plan"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// TestPMTreeFilterEquivalence runs the shared filtered-search harness.
// The PM-tree does not implement core.AcceptSearcher, so the forced
// probe leg must degrade to post-filtering and still answer exactly the
// brute-force filter-then-scan — the degradation path is the point of
// adopting the harness here.
func TestPMTreeFilterEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(false, 250, 7) {
		idx, err := mtree.NewPMTree(ed.DS, store.NewPager(0), ed.Pivots, 7, 0)
		if err != nil {
			t.Fatalf("%s: New: %v", ed.Name, err)
		}
		if plan.Capable(idx) {
			t.Fatalf("%s: PM-tree unexpectedly probe-capable; drop the degradation comment", ed.Name)
		}
		testutil.CheckFilterEquivalence(t, ed, idx)
	}
}
