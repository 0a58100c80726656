package table

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/store"
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

// TestDiskTableFilterEquivalence runs the same harness on the two disk
// families of the handle: CPT, whose in-memory zoned rows prune before
// the accept test (plan.PushdownPruned) and whose verified candidates
// are M-tree leaf reads, and Omni-seq, whose probe scans every table
// page (plan.PushdownScan) and reads accepted candidates from its RAF.
func TestDiskTableFilterEquivalence(t *testing.T) {
	for _, c := range []struct {
		kind string
		pd   plan.Pushdown
	}{{"CPT", plan.PushdownPruned}, {"Omni-seq", plan.PushdownScan}} {
		for _, ed := range testutil.EquivDatasets(false, 300, 7) {
			var idx core.Index
			var err error
			if c.kind == "CPT" {
				idx, err = NewCPT(ed.DS, store.NewPager(1024), ed.Pivots, 7, 0)
			} else {
				idx, err = NewOmniSeq(ed.DS, store.NewPager(1024), ed.Pivots, 0)
			}
			if err != nil {
				t.Fatalf("%s/%s: build: %v", c.kind, ed.Name, err)
			}
			if got := plan.PushdownOf(idx); got != c.pd {
				t.Fatalf("%s/%s: plan.PushdownOf = %d, want %d", c.kind, ed.Name, got, c.pd)
			}
			testutil.CheckFilterEquivalence(t, ed, idx)
		}
	}
}
