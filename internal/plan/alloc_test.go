package plan_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// TestFilteredKNNAllocs is the runtime witness that filtered search no
// longer builds a bag per row: a filtered LAESA kNN allocates the same
// small constant however many rows the pre strategy sweeps or the probe
// strategy tests — the answer, the heap and the compiled predicate —
// and the per-row matcher allocates nothing.
func TestFilteredKNNAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	pred, err := plan.Parse(`category = "rare" OR (level >= 3 AND tags = "hot")`)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	allocs := map[plan.Strategy][]float64{}
	for _, n := range []int{1000, 8000} {
		ds := testutil.VectorDataset(n, 4, 100, core.L2{}, 3)
		testutil.AttachTestAttrs(t, ds, 5)
		idx, err := table.NewLAESA(ds, testutil.SpreadPivots(ds, 5))
		if err != nil {
			t.Fatal(err)
		}
		var q core.Object = testutil.RandomQuery(ds, 1)
		for _, st := range []plan.Strategy{plan.StrategyPre, plan.StrategyProbe} {
			a := testing.AllocsPerRun(50, func() {
				if _, err := plan.ExecKNN(ds, idx, pred, q, 10, st, 0.2, nil); err != nil {
					t.Fatal(err)
				}
			})
			allocs[st] = append(allocs[st], a)
		}
		m := pred.Compile(ds)
		if a := testing.AllocsPerRun(100, func() {
			for id := 0; id < n; id += 7 {
				_ = m.Match(id)
			}
		}); a != 0 {
			t.Errorf("n=%d: Match allocates %v per sweep", n, a)
		}
		m.Release()
	}
	for st, a := range allocs {
		if a[0] != a[1] || a[1] > budget {
			t.Errorf("%v: filtered kNN allocates %v at n=1000 and %v at n=8000; want one constant ≤ %d", st, a[0], a[1], budget)
		}
	}
}
