package table

import (
	"testing"

	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
)

// BenchmarkLAESAColor runs LAESA's kNN and range queries at the shape of
// the repository benchmark's table-color workload: 50 000 Color points
// (282-D, L1), five HFI pivots, k = 10 and a range radius calibrated to
// a selectivity of 0.001. Each op is one query of a 64-query pool. The
// table's mirror is narrowed, so most of an op is the per-candidate
// check of the codes and the exact check of the rows they keep
// (docs/KERNELS.md "The narrowed mirror"); compdists/op is the paper's
// cost, and exact/op the rows verified on their 2 256-byte objects.
// `make bench-color` runs it once so it keeps compiling and running;
// raise -benchtime to measure.
func BenchmarkLAESAColor(b *testing.B) {
	gen, err := dataset.Generate(dataset.Color, dataset.Config{N: 50000, Queries: 64, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	ds := gen.Dataset
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 43})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := NewLAESA(ds, pv)
	if err != nil {
		b.Fatal(err)
	}
	if !idx.tab.FlatArmed() || !idx.tab.flat.Narrowed() {
		b.Fatal("the Color table's mirror is not narrowed")
	}
	r := dataset.CalibrateRadius(gen, 0.001)
	for _, leg := range []struct {
		name  string
		query func(i int) error
	}{
		{"kNN", func(i int) error { _, err := idx.KNNSearch(gen.Queries[i%len(gen.Queries)], 10); return err }},
		{"range", func(i int) error { _, err := idx.RangeSearch(gen.Queries[i%len(gen.Queries)], r); return err }},
	} {
		b.Run(leg.name, func(b *testing.B) {
			cd0, exact0 := ds.Space().CompDists(), idx.tab.nexact.Load()
			b.ResetTimer()
			for i := range b.N {
				if err := leg.query(i); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ds.Space().CompDists()-cd0)/float64(b.N), "compdists/op")
			b.ReportMetric(float64(idx.tab.nexact.Load()-exact0)/float64(b.N), "exact/op")
		})
	}
}
