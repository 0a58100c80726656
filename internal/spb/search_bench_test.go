package spb

import (
	"testing"

	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
)

// BenchmarkSPBSearch runs the SPB-tree's kNN and range queries at the
// shape of the repository benchmark's disk-spb-la workload: 200 000 LA
// points, five HFI pivots, 4 KB pages behind the 128 KB page cache, k =
// 10 and a range radius calibrated to a selectivity of 0.001. Each op is
// one query of a 64-query pool; compdists/op and PA/op are the paper's
// costs, which a change to the leaf loop's CPU time must leave as they
// are. `make bench-spb` runs it once so it keeps compiling and running;
// raise -benchtime to measure.
func BenchmarkSPBSearch(b *testing.B) {
	gen, err := dataset.Generate(dataset.LA, dataset.Config{N: 200000, Queries: 64, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ds := gen.Dataset
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	pager := store.NewPager(store.DefaultPageSize)
	idx, err := New(ds, pager, pv, Options{MaxDistance: gen.MaxDistance})
	if err != nil {
		b.Fatal(err)
	}
	pager.SetCacheBytes(store.DefaultCacheBytes)
	r := dataset.CalibrateRadius(gen, 0.001)
	for _, leg := range []struct {
		name  string
		query func(i int) error
	}{
		{"kNN", func(i int) error { _, err := idx.KNNSearch(gen.Queries[i%len(gen.Queries)], 10); return err }},
		{"range", func(i int) error { _, err := idx.RangeSearch(gen.Queries[i%len(gen.Queries)], r); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			cd0, pa0 := ds.Space().CompDists(), pager.PageAccesses()
			b.ResetTimer()
			for i := range b.N {
				if err := leg.query(i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ds.Space().CompDists()-cd0)/float64(b.N), "compdists/op")
			b.ReportMetric(float64(pager.PageAccesses()-pa0)/float64(b.N), "PA/op")
		})
	}
}
