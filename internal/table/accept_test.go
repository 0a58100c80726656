package table_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// TestAcceptRunsAfterRecheck pins the order of the staged scan's second
// and third stages: the accept test runs only on rows the fresh-radius
// Lemma 1 recheck keeps, and nothing stands between an accepted row and
// its distance. So every accept call that says yes costs exactly one
// compdist past the query's pivot distances, on both verification paths
// (the flat kernel for vectors, chunked DistanceMany for words). Had a
// row the recheck prunes reached accept first, the yes count would
// exceed the verified rows.
func TestAcceptRunsAfterRecheck(t *testing.T) {
	type acceptSearcher interface {
		core.Index
		core.AcceptSearcher
	}
	for _, family := range []string{"LAESA", "EPT*"} {
		for _, words := range []bool{false, true} {
			ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 7)
			if words {
				ds = testutil.WordDataset(1500, 11)
			}
			idx := goldenBuild(t, family, ds).(acceptSearcher)
			var calls, yes int64
			var accept core.Accept = func(id int) bool {
				calls++
				if id%3 != 0 {
					yes++
					return true
				}
				return false
			}
			for qs := int64(0); qs < 6; qs++ {
				q := testutil.RandomQuery(ds, qs)
				// The query's own pivot distances: what a scan accepting
				// nothing spends.
				ds.Space().ResetCompDists()
				if _, err := idx.KNNSearchAccept(q, 1, core.Accept(func(int) bool { return false })); err != nil {
					t.Fatalf("%s: KNNSearchAccept: %v", family, err)
				}
				base := ds.Space().CompDists()
				for _, k := range []int{1, 10, 100} {
					ds.Space().ResetCompDists()
					calls, yes = 0, 0
					if _, err := idx.KNNSearchAccept(q, k, accept); err != nil {
						t.Fatalf("%s: KNNSearchAccept: %v", family, err)
					}
					if verified := ds.Space().CompDists() - base; yes != verified {
						t.Fatalf("%s words=%v query %d k=%d: %d accepted rows of %d accept calls, %d verified; want accepted == verified",
							family, words, qs, k, yes, calls, verified)
					}
				}
			}
		}
	}
}
