package epoch_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/table"
)

// TestFilteredSearchUnderChurn runs filtered kNN and range readers beside
// writers that add objects with bags, remove them and rewrite bags, on
// the two table layouts (LAESA's shared pivots, EPT*'s per-row ones).
// The tables keep a row-ordered copy of the attribute cells that the
// probe strategy reads 64 rows at a time, and every write changes it, so
// under -race this is the check that a reader never sees the copy
// half-written. Each reader plans, answers and brute-forces its query in
// one read section (Live.Snapshot), so every answer is checked against
// the filter-then-scan of the dataset version it was computed on. The
// probe is forced, so the copy is what answers.
func TestFilteredSearchUnderChurn(t *testing.T) {
	builds := map[string]func(ds *core.Dataset) (core.Index, error){
		"LAESA": builders()["LAESA"],
		"EPT*": func(ds *core.Dataset) (core.Index, error) {
			return table.NewEPTStar(ds, table.EPTOptions{L: 3, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 64}})
		},
	}
	preds := []*plan.Predicate{
		mustParsePlan(t, `kind = "red" AND size < 32`),
		mustParsePlan(t, `size >= 60 OR tags = "hot"`),
		mustParsePlan(t, `kind IN ("green", "blue") AND w > 0`),
	}
	for name, build := range builds {
		l := newLive(t, name, build, 300)
		var initial []int
		l.View(func(ds *core.Dataset, _ core.Index) { initial = append(initial, ds.LiveIDs()...) })
		seedRng := rand.New(rand.NewSource(7))
		for _, id := range initial {
			if _, err := l.SetAttrsAt(id, churnBag(seedRng)); err != nil {
				t.Fatalf("%s: SetAttrsAt(%d): %v", name, id, err)
			}
		}

		var (
			wg, readers sync.WaitGroup
			done        atomic.Bool
			failed      atomic.Pointer[error]
		)
		fail := func(err error) { failed.CompareAndSwap(nil, &err) }
		const writers, writes = 2, 150
		for g := range writers {
			var owned []int
			for i := g; i < len(initial); i += writers {
				owned = append(owned, initial[i])
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + g)))
				for range writes {
					var err error
					switch op := rng.Intn(3); {
					case op == 0:
						var id int
						if id, _, err = l.AddAttrsAt(churnObject(rng), churnBag(rng)); err == nil {
							owned = append(owned, id)
						}
					case op == 1 && len(owned) > 8:
						i := rng.Intn(len(owned))
						_, err = l.RemoveAt(owned[i])
						owned[i] = owned[len(owned)-1]
						owned = owned[:len(owned)-1]
					default:
						_, err = l.SetAttrsAt(owned[rng.Intn(len(owned))], churnBag(rng))
					}
					if err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		for g := range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				rng := rand.New(rand.NewSource(int64(200 + g)))
				for !done.Load() {
					q, p := churnObject(rng), preds[rng.Intn(len(preds))]
					err := l.Snapshot(func(ds *core.Dataset, idx core.Index, ep uint64) error {
						return checkFiltered(ds, idx, p, q, ep, rng.Intn(2) == 0)
					})
					if err != nil {
						fail(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		done.Store(true)
		readers.Wait()
		if err := failed.Load(); err != nil {
			t.Fatalf("%s: %v", name, *err)
		}
		l.View(func(_ *core.Dataset, idx core.Index) {
			if err := idx.(interface{ Validate() error }).Validate(); err != nil {
				t.Fatalf("%s: after churn: %v", name, err)
			}
		})
	}
}

// checkFiltered answers one probe-forced filtered query, a kNN (k = 10)
// or a range (r = 25), and compares it with the filter-then-scan of ds.
func checkFiltered(ds *core.Dataset, idx core.Index, p *plan.Predicate, q core.Object, ep uint64, knn bool) error {
	var want []core.Neighbor
	for _, id := range ds.LiveIDs() {
		if p.Eval(ds.Attrs(id)) {
			want = append(want, core.Neighbor{ID: id, Dist: ds.DistanceTo(q, id)})
		}
	}
	slices.SortFunc(want, func(a, b core.Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
	if knn {
		got, err := plan.ExecKNN(ds, idx, p, q, 10, plan.StrategyProbe, 0.5, nil)
		if err != nil {
			return err
		}
		want = want[:min(10, len(want))]
		if !slices.Equal(got, want) {
			return fmt.Errorf("epoch %d: %q kNN answered %v, want %v", ep, p, got, want)
		}
		return nil
	}
	got, err := plan.ExecRange(ds, idx, p, q, 25, plan.StrategyProbe, nil)
	if err != nil {
		return err
	}
	var ids []int
	for _, nb := range want {
		if nb.Dist <= 25 {
			ids = append(ids, nb.ID)
		}
	}
	slices.Sort(ids)
	if !slices.Equal(got, ids) {
		return fmt.Errorf("epoch %d: %q range answered %v, want %v", ep, p, got, ids)
	}
	return nil
}
