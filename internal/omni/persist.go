package omni

import (
	"fmt"
	"sort"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding for the OmniB+-tree (spec:
// docs/PERSISTENCE.md §Omni): the family's base section
// (persist.EncodeOmni), the indexed id set, and each per-pivot
// B+-tree's root and size.

func init() {
	persist.Register("OmniB+-tree", loadBPlus)
}

// EncodeSnapshot writes the OmniB+-tree payload.
func (t *BPlus) EncodeSnapshot(w *store.Writer) error {
	persist.EncodeOmni(w, t.base)
	w.U32(uint32(t.size))
	ids := make([]int, 0, len(t.ids))
	for id := range t.ids {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Ints(ids)
	w.U32(uint32(len(t.trees)))
	for _, tr := range t.trees {
		w.U32(uint32(tr.Root()))
		w.U32(uint32(tr.Len()))
	}
	return nil
}

func loadBPlus(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	b, err := persist.DecodeOmni(ds, r)
	if err != nil {
		return nil, nil, err
	}
	t := &BPlus{base: b, ds: ds, ids: make(map[int]bool)}
	t.size = int(r.U32())
	for _, id := range r.Ints() {
		t.ids[id] = true
	}
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n != len(b.PivotIDs) {
		return nil, nil, fmt.Errorf("omni: %d B+-trees for %d pivots", n, len(b.PivotIDs))
	}
	t.trees = make([]*bptree.Tree, n)
	for i := range t.trees {
		root := store.PageID(r.U32())
		sz := int(r.U32())
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		t.trees[i], err = bptree.Restore(b.Pager, nil, root, sz)
		if err != nil {
			return nil, nil, err
		}
	}
	return t, b.Pager, nil
}
