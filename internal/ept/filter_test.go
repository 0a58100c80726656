package ept

import (
	"testing"

	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// TestEPTFilterEquivalence runs the shared filtered-search harness over
// both EPT variants: every strategy (and the planner's pick) must
// answer exactly the brute-force filter-then-scan. EPT is
// probe-capable, so the probe leg pushes the predicate into candidate
// verification for real; its per-row table has no zone map, so the
// planner prices that probe as a full scan (plan.PushdownScan).
func TestEPTFilterEquivalence(t *testing.T) {
	for _, v := range []Variant{Original, Star} {
		for _, ed := range testutil.EquivDatasets(false, 250, 7) {
			idx, err := New(ed.DS, v, Options{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
			if err != nil {
				t.Fatalf("%s/%v: New: %v", ed.Name, v, err)
			}
			if got := plan.PushdownOf(idx); got != plan.PushdownScan {
				t.Fatalf("%s/%v: plan.PushdownOf = %d, want PushdownScan", ed.Name, v, got)
			}
			testutil.CheckFilterEquivalence(t, ed, idx)
		}
	}
}

// TestDiskEPTFilterEquivalence runs the harness on DiskEPT*: its probe
// tests the accept test on every row Lemma 1 keeps in its page scan
// (plan.PushdownScan), before the candidate's RAF read.
func TestDiskEPTFilterEquivalence(t *testing.T) {
	for _, ed := range testutil.EquivDatasets(false, 250, 7) {
		idx, err := NewDisk(ed.DS, store.NewPager(1024), Options{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
		if err != nil {
			t.Fatalf("%s: NewDisk: %v", ed.Name, err)
		}
		if got := plan.PushdownOf(idx); got != plan.PushdownScan {
			t.Fatalf("%s: plan.PushdownOf = %d, want PushdownScan", ed.Name, got)
		}
		testutil.CheckFilterEquivalence(t, ed, idx)
	}
}
