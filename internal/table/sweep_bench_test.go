package table

import (
	"slices"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
)

// tableSweep is one block sweep a query runs: its pivot distances, the
// block's rows and the radius current when the block popped.
type tableSweep struct {
	qd        []float64
	base, end int
	r         float64
}

// recordSweeps runs q's query through the block loop of scan.run and
// returns the sweeps it made: kNN when k > 0, else range at r.
func recordSweeps(t *Table, q core.Object, k int, r float64) []tableSweep {
	sc := t.scratch.Get()
	defer t.scratch.Put(sc)
	s := t.begin(sc, q, nil)
	if k > 0 {
		s.h, s.chunk = sc.Heap(k), t.gather[1]
		s.r = s.h.Radius()
	} else {
		s.r, s.res = r, sc.Keys[:0]
	}
	var sweeps []tableSweep
	nb, _ := t.blocks()
	v := t.zones.visit(&sc.Zones, sc.QD, nb, s.limit())
	for b := v.next(s.limit()); b >= 0; b = v.next(s.limit()) {
		base, end := b*zoneRows, min((b+1)*zoneRows, len(s.ids))
		sweeps = append(sweeps, tableSweep{slices.Clone(sc.QD), base, end, s.r})
		if err := s.block(base, end); err != nil {
			panic(err)
		}
	}
	if k <= 0 {
		sc.Keys = s.res[:0]
	}
	return sweeps
}

// BenchmarkTableSweep times core.SurviveColumns on the sweeps pool
// queries make, rather than on uniform random columns: an LA LAESA
// (n = 100 000, 5 HFI pivots, curve-ordered rows) answers 64 pool
// queries as kNN (k = 10) and as range queries at the radius selecting
// 0.1 % of the rows, and the benchmark replays every block each visited,
// at the radius it was swept at. Rows are the rows swept; survivors are
// what the sweeps keep.
func BenchmarkTableSweep(b *testing.B) {
	gen, err := dataset.Generate(dataset.LA, dataset.Config{N: 100000, Queries: 64, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	pv, err := pivot.HFI(gen.Dataset, 5, pivot.Options{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := NewLAESA(gen.Dataset, pv)
	if err != nil {
		b.Fatal(err)
	}
	t := idx.tab
	// The range radius: the median distance to the 100th neighbour.
	radii := make([]float64, 0, len(gen.Queries))
	for _, q := range gen.Queries {
		nn, err := t.KNN(q, gen.Dataset.Count()/1000, nil)
		if err != nil {
			b.Fatal(err)
		}
		radii = append(radii, nn[len(nn)-1].Dist)
	}
	slices.Sort(radii)
	var sweeps []tableSweep
	for _, q := range gen.Queries {
		sweeps = append(sweeps, recordSweeps(t, q, 10, 0)...)
		sweeps = append(sweeps, recordSweeps(t, q, 0, radii[len(radii)/2])...)
	}
	sur := make([]int32, zoneRows)
	rows, kept := 0, 0
	for _, sw := range sweeps {
		rows += sw.end - sw.base
		kept += len(core.SurviveColumns(sur, sw.qd, t.cols, sw.base, sw.end, sw.r))
	}
	b.ResetTimer()
	for range b.N {
		for _, sw := range sweeps {
			core.SurviveColumns(sur, sw.qd, t.cols, sw.base, sw.end, sw.r)
		}
	}
	b.ReportMetric(float64(b.N)*float64(rows)/b.Elapsed().Seconds()/1e9, "Grows/s")
	b.ReportMetric(float64(kept)/float64(rows), "kept/row")
	b.ReportMetric(float64(len(sweeps))/float64(2*len(gen.Queries)), "blocks/query")
}
