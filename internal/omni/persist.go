package omni

import (
	"fmt"
	"sort"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/persist"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Snapshot payload encodings for the Omni family (spec:
// docs/PERSISTENCE.md §Omni). All three members share the base encoding:
// pager volume image, RAF state, pivot ids and values; the member state
// follows.

const omniFormatVersion = 1

func init() {
	persist.Register("Omni-seq", loadSeqFile)
	persist.Register("OmniB+-tree", loadBPlus)
	persist.Register("OmniR-tree", loadRTree)
}

func (b *base) encodeBase(w *persist.Writer) {
	w.Blob(b.pager.Serialize())
	w.Blob(b.raf.Serialize())
	w.Pivots(b.pivotIDs, b.pivotVals)
}

func decodeBase(ds *core.Dataset, r *persist.Reader) (*base, error) {
	pagerBlob := r.Blob()
	rafBlob := r.Blob()
	pivotIDs, pivotVals := r.Pivots(ds.Sample())
	if err := r.Err(); err != nil {
		return nil, err
	}
	pager, err := store.LoadPager(pagerBlob)
	if err != nil {
		return nil, err
	}
	raf, err := store.LoadRAF(pager, rafBlob, ds.Len())
	if err != nil {
		return nil, err
	}
	return &base{ds: ds, pager: pager, raf: raf, pivotIDs: pivotIDs, pivotVals: pivotVals}, nil
}

// EncodeSnapshot writes the Omni-sequential-file payload: base state,
// then the paged table's section (table.Table.EncodeFile).
func (t *SeqFile) EncodeSnapshot(w *persist.Writer) error {
	w.U16(omniFormatVersion)
	t.encodeBase(w)
	t.tab.EncodeFile(w)
	return nil
}

func loadSeqFile(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != omniFormatVersion {
		return nil, nil, fmt.Errorf("omni: unsupported payload version %d", v)
	}
	b, err := decodeBase(ds, r)
	if err != nil {
		return nil, nil, err
	}
	sec := table.DecodeFile(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	t, err := newSeqFile(b)
	if err == nil {
		err = t.tab.Open(sec, nil)
	}
	if err != nil {
		return nil, nil, err
	}
	return t, b.pager, nil
}

// EncodeSnapshot writes the OmniB+-tree payload: base state, the indexed
// id set, and each per-pivot B+-tree's root and size.
func (t *BPlus) EncodeSnapshot(w *persist.Writer) error {
	w.U16(omniFormatVersion)
	t.encodeBase(w)
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

func loadBPlus(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != omniFormatVersion {
		return nil, nil, fmt.Errorf("omni: unsupported payload version %d", v)
	}
	b, err := decodeBase(ds, r)
	if err != nil {
		return nil, nil, err
	}
	t := &BPlus{base: b, ids: make(map[int]bool)}
	t.size = int(r.U32())
	for _, id := range r.Ints() {
		t.ids[id] = true
	}
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if n != len(b.pivotIDs) {
		return nil, nil, fmt.Errorf("omni: %d B+-trees for %d pivots", n, len(b.pivotIDs))
	}
	t.trees = make([]*bptree.Tree, n)
	for i := range t.trees {
		root := store.PageID(r.U32())
		sz := int(r.U32())
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		t.trees[i], err = bptree.Restore(b.pager, nil, root, sz)
		if err != nil {
			return nil, nil, err
		}
	}
	return t, b.pager, nil
}

// EncodeSnapshot writes the OmniR-tree payload: base state, then the
// R-tree's handle state (mtree.Tree.EncodeState: root, size, bound and
// the id→point table used by deletes).
func (t *RTree) EncodeSnapshot(w *persist.Writer) error {
	w.U16(omniFormatVersion)
	t.encodeBase(w)
	return t.tree.EncodeState(w)
}

func loadRTree(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != omniFormatVersion {
		return nil, nil, fmt.Errorf("omni: unsupported payload version %d", v)
	}
	b, err := decodeBase(ds, r)
	if err != nil {
		return nil, nil, err
	}
	tree, err := mtree.RestoreState(ds, b.pager, b.raf, b.pivotVals, r)
	if err != nil {
		return nil, nil, err
	}
	return &RTree{base: b, tree: tree}, b.pager, nil
}
