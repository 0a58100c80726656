package pmtree

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding for the PM-tree (spec: docs/PERSISTENCE.md
// §PM-tree): the pager volume image followed by the mtree handle state.

const pmtreeFormatVersion = 1

func init() {
	persist.Register("PM-tree", loadPMTree)
}

// EncodeSnapshot writes the PM-tree payload.
func (t *PMTree) EncodeSnapshot(w *persist.Writer) error {
	w.U16(pmtreeFormatVersion)
	w.Blob(t.pager.Serialize())
	return t.tree.EncodeState(w)
}

func loadPMTree(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != pmtreeFormatVersion {
		return nil, nil, fmt.Errorf("pmtree: unsupported payload version %d", v)
	}
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	pager, err := store.LoadPager(blob)
	if err != nil {
		return nil, nil, err
	}
	tree, err := mtree.RestoreState(ds, pager, nil, nil, r)
	if err != nil {
		return nil, nil, err
	}
	if tree.NumPivots() == 0 {
		return nil, nil, fmt.Errorf("pmtree: snapshot holds a plain M-tree (no rings)")
	}
	return &PMTree{pager: pager, tree: tree}, pager, nil
}
