package table

import (
	"testing"

	"metricindex/internal/pivot"
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
		if !idx.Table().AttrCopyInStep() {
			t.Fatalf("%s: the attribute copy is out of step after the harness", ed.Name)
		}
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
			var idx *Index
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
			if c.kind == "CPT" && !idx.Table().AttrCopyInStep() {
				t.Fatalf("%s/%s: the attribute copy is out of step after the harness", c.kind, ed.Name)
			}
		}
	}
}

// TestEPTFilterEquivalence runs the shared filtered-search harness over
// EPT and EPT*: every strategy (and the planner's pick) must
// answer exactly the brute-force filter-then-scan. EPT is
// probe-capable, so the probe leg pushes the predicate into candidate
// verification for real; its per-row table has no zone map, so the
// planner prices that probe as a full scan (plan.PushdownScan).
func TestEPTFilterEquivalence(t *testing.T) {
	for _, kind := range eptKinds {
		for _, ed := range testutil.EquivDatasets(false, 250, 7) {
			idx, err := newEPT(kind, ed.DS, nil, EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
			if err != nil {
				t.Fatalf("%s/%s: build: %v", ed.Name, kind, err)
			}
			if got := plan.PushdownOf(idx); got != plan.PushdownScan {
				t.Fatalf("%s/%s: plan.PushdownOf = %d, want PushdownScan", ed.Name, kind, got)
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
		idx, err := NewDiskEPTStar(ed.DS, store.NewPager(1024), EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}})
		if err != nil {
			t.Fatalf("%s: NewDiskEPTStar: %v", ed.Name, err)
		}
		if got := plan.PushdownOf(idx); got != plan.PushdownScan {
			t.Fatalf("%s: plan.PushdownOf = %d, want PushdownScan", ed.Name, got)
		}
		testutil.CheckFilterEquivalence(t, ed, idx)
	}
}
