package table_test

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// FuzzPagedTablePayload feeds arbitrary payloads to the Omni-seq and
// DiskEPT* loaders, then runs a range and a kNN query on whatever loads:
// a corrupt payload must be an error, never a panic. Seeded with both
// families' payloads over small vector and word datasets, after a few
// deletes and inserts so tombstones and a partial last page are in them.
// The first byte picks the family, the second the dataset.
func FuzzPagedTablePayload(f *testing.F) {
	families := []string{"Omni-seq", "DiskEPT*"}
	shapes := []func() *core.Dataset{
		func() *core.Dataset { return testutil.VectorDataset(40, 3, 100, core.L2{}, 7) },
		func() *core.Dataset { return testutil.WordDataset(40, 11) },
	}
	for si, shape := range shapes {
		for fi := range families {
			ds := shape()
			pv, err := pivot.HFI(ds, 3, pivot.Options{Seed: 3})
			if err != nil {
				f.Fatal(err)
			}
			var idx goldenIndex
			if fi == 0 {
				idx, err = table.NewOmniSeq(ds, store.NewPager(512), pv, 0)
			} else {
				idx, err = table.NewDiskEPTStar(ds, store.NewPager(512), table.EPTOptions{L: 3, Sel: pivot.Options{Seed: 3, SampleSize: 32}})
			}
			if err != nil {
				f.Fatal(err)
			}
			for _, id := range []int{3, 20, 39} {
				if err := idx.Delete(id); err != nil {
					f.Fatal(err)
				}
			}
			if err := idx.Insert(20); err != nil {
				f.Fatal(err)
			}
			w := store.NewWriter()
			if err := idx.EncodeSnapshot(w); err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte{byte(fi), byte(si)}, w.Bytes()...))
		}
	}
	datasets := []*core.Dataset{shapes[0](), shapes[1]()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		load, _ := persist.LoaderFor(families[int(data[0])%len(families)])
		ds := datasets[int(data[1])%len(datasets)]
		idx, _, err := load(ds, store.NewReader(data[2:]))
		if err != nil {
			return
		}
		q := ds.Object(5)
		if _, err := idx.RangeSearch(q, 2); err != nil {
			return
		}
		if _, err := idx.KNNSearch(q, 5); err != nil {
			return
		}
	})
}
