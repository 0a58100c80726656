package spb

import (
	"fmt"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding of every keyed kind (spec:
// docs/PERSISTENCE.md §Keyed B+-tree): the pager volume image (B+-tree
// pages + RAF pages), the RAF state, d⁺, the family's header word, the
// pivots, the B+-tree root/size, the index size, then the family's own
// section — none for the SPB-tree, whose Hilbert curve and grid scale
// are re-derived from d⁺ and the bit width; the cluster tree for the
// M-indexes.

const formatVersion = 1

func init() {
	for _, kind := range []string{"SPB-tree", "M-index", "M-index*"} {
		persist.Register(kind, func(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
			return loadIndex(kind, ds, r)
		})
	}
}

// EncodeSnapshot writes the payload.
func (s *Index) EncodeSnapshot(w *store.Writer) error {
	w.U16(formatVersion)
	w.Blob(s.pager.Serialize())
	w.Blob(s.raf.Serialize())
	w.F64(s.maxDist)
	w.U32(s.word)
	w.Pivots(s.pivotIDs, s.pivotVals)
	w.U32(uint32(s.tree.Root()))
	w.U32(uint32(s.tree.Len()))
	w.U32(uint32(s.tree.Len())) // the index size, always the tree's
	s.fam.section(w)
	return nil
}

// loadIndex decodes the payload of kind.
func loadIndex(kind string, ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != formatVersion {
		return nil, nil, fmt.Errorf("spb: unsupported payload version %d", v)
	}
	pagerBlob, rafBlob := r.Blob(), r.Blob()
	s := &Index{kind: kind, stored: kind != "SPB-tree", validate: kind == "M-index*", ds: ds}
	s.maxDist, s.word = r.F64(), r.U32()
	s.pivotIDs, s.pivotVals = r.Pivots(ds.Sample())
	root, records, size := store.PageID(r.U32()), int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	l, word := len(s.pivotIDs), int(s.word)
	if !(s.maxDist > 0) || size != records || s.stored && (l < 2 || word < 1) {
		return nil, nil, fmt.Errorf("spb: %s with d+ %v, %d pivots, header word %d, size %d of %d records",
			kind, s.maxDist, l, word, size, records)
	}
	var aug bptree.Augmenter
	var err error
	if s.stored {
		s.fam, err = readSection(r, l, s.maxDist, word, s.validate, records)
	} else if g, gerr := newGrid(l, word, s.maxDist); gerr == nil {
		s.fam, aug = g, g.aug()
	} else {
		err = gerr
	}
	if err != nil {
		return nil, nil, err
	}
	if s.pager, s.raf, err = store.LoadVolume(pagerBlob, rafBlob, ds.Len()); err != nil {
		return nil, nil, err
	}
	if s.tree, err = bptree.Restore(s.pager, aug, root, records); err != nil {
		return nil, nil, err
	}
	return s, s.pager, nil
}
