package cpt

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Snapshot payload encoding for the CPT (spec: docs/PERSISTENCE.md
// §CPT): the pager volume image, the clustering M-tree handle state, and
// the in-memory pivot table.
//
// Version history:
//   - 1: distance table row-major (dists[row*l+i]).
//   - 2: distance table column-major (the struct-of-arrays layout: one
//     pivot's rows after another). Same fields, same wire ops; only the
//     float order changed. Version-1 payloads still load via a
//     transpose.
const cptFormatVersion = 2

func init() {
	persist.Register("CPT", loadCPT)
}

// EncodeSnapshot writes the CPT payload; the pivot table is the block
// LAESA stores.
func (c *CPT) EncodeSnapshot(w *persist.Writer) error {
	w.U16(cptFormatVersion)
	w.Blob(c.pager.Serialize())
	if err := c.tree.EncodeState(w); err != nil {
		return err
	}
	c.tab.EncodeBlock(w)
	return nil
}

func loadCPT(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	v := r.U16()
	if r.Err() == nil && v != 1 && v != cptFormatVersion {
		return nil, nil, fmt.Errorf("cpt: unsupported payload version %d", v)
	}
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	pager, err := store.LoadPager(blob)
	if err != nil {
		return nil, nil, err
	}
	c := &CPT{pager: pager}
	if c.tree, err = mtree.RestoreState(ds, pager, nil, nil, r); err != nil {
		return nil, nil, err
	}
	if c.tab, err = table.DecodeBlock("cpt", ds, r, v == 1, c.readObject); err != nil {
		return nil, nil, err
	}
	return c, pager, nil
}
