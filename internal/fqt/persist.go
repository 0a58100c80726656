package fqt

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding for the FQA (spec: docs/PERSISTENCE.md §FQA).

const fqaFormatVersion = 1

func init() {
	persist.Register("FQA", loadFQA)
}

// EncodeSnapshot writes the FQA payload: pivots, row ids and the
// discrete distance vectors, row by row.
func (t *FQA) EncodeSnapshot(w *store.Writer) error {
	w.U16(fqaFormatVersion)
	w.Pivots(t.pivotIDs, t.pivotVals)
	w.Int32s(t.ids)
	for _, vec := range t.vecs {
		w.Int32s(vec)
	}
	return nil
}

func loadFQA(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != fqaFormatVersion {
		return nil, nil, fmt.Errorf("fqa: unsupported payload version %d", v)
	}
	t := &FQA{ds: ds}
	t.pivotIDs, t.pivotVals = r.Pivots(ds.Sample())
	t.ids = r.Int32s()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	t.vecs = make([][]int32, len(t.ids))
	for i := range t.vecs {
		t.vecs[i] = r.Int32s()
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if len(t.vecs[i]) != len(t.pivotIDs) {
			return nil, nil, fmt.Errorf("fqa: row %d has %d coordinates, want %d", i, len(t.vecs[i]), len(t.pivotIDs))
		}
	}
	return t, nil, nil
}
