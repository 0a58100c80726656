package persist_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
	"metricindex/internal/testutil"
)

// TestLegacyIndexOnlyRecords recovers a WAL holding the two retired
// index-only ops: 4 (an index-only delete) and 3 (an index-only insert).
// Recovery redoes them as a remove and an add, so the dataset, the index
// and the estimator hold the same objects: every forced filter strategy
// answers like a linear scan of the dataset, and the estimator counts
// exactly the dataset's live rows.
func TestLegacyIndexOnlyRecords(t *testing.T) {
	live, ds := buildLive(t, 60)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snapshot.mxs")
	walPath := filepath.Join(dir, "wal.mxl")
	if err := persist.SaveLive(snapPath, live); err != nil {
		t.Fatal(err)
	}
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(wal)
	for i := int64(0); i < 4; i++ {
		if _, _, err := live.AddAttrsAt(testutil.RandomQuery(ds, 3000+i), core.Attrs{"shelf": core.IntValue(i)}); err != nil {
			t.Fatal(err)
		}
	}
	const y = 7
	bag := core.Attrs{"owner": core.StringValue("y")}
	ep, err := live.SetAttrsAt(y, bag)
	if err != nil {
		t.Fatal(err)
	}
	// The legacy records, appended as an older build wrote them: a
	// delete of y, then an insert of a new object carrying y's bag.
	z := ds.Len()
	if err := wal.Append(epoch.OpDelete, ep+1, y, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(epoch.OpInsert, ep+2, z, ds.Object(y), bag); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	rec, _, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wal2, recs, truncated, err := persist.OpenWAL(walPath, persist.SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if truncated || len(recs) != 7 {
		t.Fatalf("legacy records ended the valid WAL prefix: %d records, truncated=%v", len(recs), truncated)
	}
	if _, err := persist.Replay(rec, recs); err != nil {
		t.Fatal(err)
	}
	if rec.Epoch() != ep+2 {
		t.Fatalf("recovered epoch %d, want %d", rec.Epoch(), ep+2)
	}

	p, err := plan.Parse(`owner = "y"`)
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Object(y)
	rows := 0
	rec.PlanStats(func(s *plan.Stats) { rows = s.Rows() })
	rec.View(func(rds *core.Dataset, idx core.Index) {
		if rds.Object(y) != nil || rds.Object(z) == nil {
			t.Errorf("legacy ops not redone as remove and add: y live %v, z live %v", rds.Object(y) != nil, rds.Object(z) != nil)
		}
		if rows != rds.Count() {
			t.Errorf("estimator counts %d rows, dataset holds %d", rows, rds.Count())
		}
		m := p.Compile(rds)
		defer m.Release()
		var wantIDs []int
		var wantNNs []core.Neighbor
		for _, id := range rds.LiveIDs() {
			if m.Match(id) {
				d := rds.Space().Metric().Distance(q, rds.Object(id))
				wantIDs = append(wantIDs, id)
				wantNNs = append(wantNNs, core.Neighbor{ID: id, Dist: d})
			}
		}
		core.SortNeighbors(wantNNs)
		for _, st := range plan.Strategies {
			ids, err := plan.ExecRange(rds, idx, p, q, 1e9, st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
				t.Errorf("%v range: %v, linear scan %v", st, ids, wantIDs)
			}
			nns, err := plan.ExecKNN(rds, idx, p, q, 3, st, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(nns) != fmt.Sprint(wantNNs) {
				t.Errorf("%v kNN: %v, linear scan %v", st, nns, wantNNs)
			}
		}
	})
}
