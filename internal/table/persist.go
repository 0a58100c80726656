package table

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encodings for the table family (spec:
// docs/PERSISTENCE.md §LAESA, §AESA). Both payloads begin with a u16
// family version.
//
// LAESA version history:
//   - 1: distance table row-major (dists[row*l+i]).
//   - 2: distance table column-major (the in-memory struct-of-arrays
//     layout: column i's rows, then column i+1's). Same fields, same
//     wire ops; only the float order changed. Version-1 payloads still
//     load via a transpose.
const (
	tableFormatVersion = 2
	aesaFormatVersion  = 1
)

func init() {
	persist.Register("LAESA", loadLAESA)
	persist.Register("AESA", loadAESA)
}

// EncodeSnapshot writes the LAESA payload: the family version, then the
// shared table block.
func (t *LAESA) EncodeSnapshot(w *persist.Writer) error {
	w.U16(tableFormatVersion)
	t.tab.EncodeBlock(w)
	return nil
}

func loadLAESA(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	v := r.U16()
	if r.Err() == nil && v != 1 && v != tableFormatVersion {
		return nil, nil, fmt.Errorf("laesa: unsupported payload version %d", v)
	}
	tab, err := DecodeBlock("laesa", ds, r, v == 1, nil)
	if err != nil {
		return nil, nil, err
	}
	return &LAESA{tab: tab}, nil, nil
}

// EncodeSnapshot writes the AESA payload: the row ids and the full n×n
// distance matrix, row by row.
func (a *AESA) EncodeSnapshot(w *persist.Writer) error {
	w.U16(aesaFormatVersion)
	w.Int32s(a.ids)
	for _, row := range a.dist {
		w.Floats(row)
	}
	return nil
}

func loadAESA(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != aesaFormatVersion {
		return nil, nil, fmt.Errorf("aesa: unsupported payload version %d", v)
	}
	a := &AESA{ds: ds, ids: r.Int32s(), rowOf: make(map[int]int)}
	n := len(a.ids)
	a.dist = make([][]float64, n)
	for i := range a.dist {
		a.dist[i] = r.Floats()
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if len(a.dist[i]) != n {
			return nil, nil, fmt.Errorf("aesa: matrix row %d has %d entries, want %d", i, len(a.dist[i]), n)
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	for row, id := range a.ids {
		a.rowOf[int(id)] = row
	}
	return a, nil, nil
}
