package plan_test

import (
	"fmt"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/table"
)

// strategyPredicates span the selectivities the planner decides between
// over dataset.AttachAttrs' bags, from ≈0.01 % to ≈30 %. The "kappa"
// rows step through the expected-match counts where pre and a
// pushed-down probe cross over for k = 1, 10 and 100.
var strategyPredicates = []string{
	`price > 800`,
	`category = "kappa" AND stock < 1`,
	`category = "kappa" AND stock < 3`,
	`category = "kappa" AND stock < 6`,
	`category = "kappa" AND stock < 10`,
	`category = "kappa" AND stock < 15`,
	`category = "kappa" AND stock < 25`,
	`category = "kappa" AND stock < 50`,
	`category = "kappa" AND stock < 75`,
	`category = "kappa"`,
	`stock < 5`,
	`stock < 10`,
	`stock < 30`,
}

// BenchmarkFilteredStrategies prices every filtered-search strategy on
// the indexes that push the accept test down (LAESA, EPT*): LA with
// n = 100 000 and AttachAttrs' bags, kNN at k = 1, 10 and 100 and range
// at the radius of each query's 50th unfiltered neighbour, over the
// predicates of strategyPredicates. One op is one query, cycling over
// the pool; each leg reports its compdists per op and the predicate's
// match count, and ns/op is its time. The crossover of pre and probe
// sets the planner's preMatchesPerNeighbor (docs/HYBRID.md holds the
// table).
//
//	go test -run '^$' -bench FilteredStrategies -benchtime 200x ./internal/plan
func BenchmarkFilteredStrategies(b *testing.B) {
	const n, numQueries = 100000, 256
	gen, err := dataset.Generate(dataset.LA, dataset.Config{N: n, Queries: numQueries, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.AttachAttrs(gen, 2); err != nil {
		b.Fatal(err)
	}
	ds := gen.Dataset
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	laesa, err := table.NewLAESA(ds, pv)
	if err != nil {
		b.Fatal(err)
	}
	star, err := table.NewEPTStar(ds, table.EPTOptions{L: 5, Sel: pivot.Options{Seed: 2}, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	radii := make([]float64, numQueries)
	for i, q := range gen.Queries {
		nbs, err := laesa.KNNSearch(q, 50)
		if err != nil {
			b.Fatal(err)
		}
		radii[i] = nbs[len(nbs)-1].Dist
	}
	kinds := []struct {
		name string
		kind plan.Kind
		k    int
	}{{"knn1", plan.KindKNN, 1}, {"knn10", plan.KindKNN, 10}, {"knn100", plan.KindKNN, 100}, {"range50", plan.KindRange, 0}}

	for _, idx := range []core.Index{laesa, star} {
		for _, src := range strategyPredicates {
			p, err := plan.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			m := p.Compile(ds)
			matches := 0
			for range m.Rows() {
				matches++
			}
			m.Release()
			sel := float64(matches) / float64(ds.Count())
			for _, kd := range kinds {
				for _, st := range plan.Strategies {
					name := fmt.Sprintf("%s/matches=%d/%s/%s", idx.Name(), matches, kd.name, st)
					b.Run(name, func(b *testing.B) {
						ds.Space().ResetCompDists()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							qi := i % numQueries
							var err error
							if kd.kind == plan.KindRange {
								_, err = plan.ExecRange(ds, idx, p, gen.Queries[qi], radii[qi], st, nil)
							} else {
								_, err = plan.ExecKNN(ds, idx, p, gen.Queries[qi], kd.k, st, sel, nil)
							}
							if err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(float64(ds.Space().CompDists())/float64(b.N), "compdists/op")
						b.ReportMetric(float64(matches), "matches")
					})
				}
			}
		}
	}
}
