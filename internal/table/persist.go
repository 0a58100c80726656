package table

import (
	"fmt"
	"strings"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encodings for the table family (spec:
// docs/PERSISTENCE.md §LAESA, §CPT, §Omni, §EPT, §AESA). LAESA's and
// CPT's payloads begin with a u16 family version, then CPT's pager
// volume image and clustering M-tree handle state; then the shared table
// block. Omni-seq's is the Omni base section, then the paged table's
// section. The per-row families' are in ept.go.
//
// LAESA and CPT version history:
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
	for _, kind := range []string{"LAESA", "EPT", "EPT*", "CPT", "Omni-seq", "DiskEPT*"} {
		persist.Register(kind, func(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
			return loadIndex(kind, ds, r)
		})
	}
	persist.Register("AESA", loadAESA)
}

// EncodeSnapshot writes the family's payload.
func (t *Index) EncodeSnapshot(w *store.Writer) error {
	switch t.kind {
	case "EPT", "EPT*":
		return t.encodeEPT(w)
	case "DiskEPT*":
		return t.encodeDiskEPT(w)
	case "Omni-seq":
		persist.EncodeOmni(w, persist.Omni{Pager: t.pager, RAF: t.raf, PivotIDs: t.tab.pivotIDs, Pivots: t.tab.pivots})
		t.tab.encodeFile(w)
		return nil
	}
	w.U16(tableFormatVersion)
	if t.tree != nil {
		w.Blob(t.pager.Serialize())
		if err := t.tree.EncodeState(w); err != nil {
			return err
		}
	}
	t.tab.EncodeBlock(w)
	return nil
}

// loadIndex reads the payload of kind.
func loadIndex(kind string, ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	switch kind {
	case "EPT", "EPT*":
		return loadEPT(kind, ds, r)
	case "DiskEPT*":
		return loadDiskEPT(ds, r)
	case "Omni-seq":
		b, err := persist.DecodeOmni(ds, r)
		if err != nil {
			return nil, nil, err
		}
		sec := decodeFile(r)
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		t, err := newOmniSeq(ds, b)
		if err == nil {
			err = t.tab.openFile(sec, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		return t, t.pager, nil
	}
	name := strings.ToLower(kind)
	v := r.U16()
	if r.Err() == nil && v != 1 && v != tableFormatVersion {
		return nil, nil, fmt.Errorf("%s: unsupported payload version %d", name, v)
	}
	t := &Index{kind: kind}
	var load func(id int) (core.Object, error)
	var err error
	if kind == "CPT" {
		image := r.Blob()
		if err = r.Err(); err == nil {
			t.pager, err = store.LoadPager(image)
		}
		if err == nil {
			t.tree, err = mtree.RestoreState(ds, t.pager, nil, nil, r)
		}
		if err != nil {
			return nil, nil, err
		}
		load = t.readObject
	}
	if t.tab, err = DecodeBlock(name, ds, r, v == 1, load); err != nil {
		return nil, nil, err
	}
	return t, t.pager, nil
}

// EncodeSnapshot writes the AESA payload: the row ids and the full n×n
// distance matrix, row by row.
func (a *AESA) EncodeSnapshot(w *store.Writer) error {
	w.U16(aesaFormatVersion)
	w.Int32s(a.ids)
	for _, row := range a.dist {
		w.Floats(row)
	}
	return nil
}

func loadAESA(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
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
