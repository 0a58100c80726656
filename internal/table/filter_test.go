package table

import (
	"testing"

	"metricindex/internal/plan"
	"metricindex/internal/testutil"
)

// TestLAESAFilterEquivalence runs the shared filtered-search harness:
// every strategy (and the planner's pick) must answer exactly the
// brute-force filter-then-scan. LAESA is probe-capable, so the probe
// leg exercises RangeSearchAccept/KNNSearchAccept for real, and its
// zone map prunes before the accept test (plan.PushdownPruned).
func TestLAESAFilterEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(false, 300, 7) {
		idx, err := NewLAESA(ed.DS, ed.Pivots)
		if err != nil {
			t.Fatalf("%s: NewLAESA: %v", ed.Name, err)
		}
		if got := plan.PushdownOf(idx); got != plan.PushdownPruned {
			t.Fatalf("%s: plan.PushdownOf = %d, want PushdownPruned", ed.Name, got)
		}
		testutil.CheckFilterEquivalence(t, ed, idx)
	}
}
