package spb

import (
	"fmt"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot payload encoding for the SPB-tree (spec: docs/PERSISTENCE.md
// §SPB-tree): the pager volume image (B+-tree pages + RAF pages), the RAF
// state, the build options and pivots, and the B+-tree root/size. The
// Hilbert curve and grid scale are re-derived from MaxDistance and the
// bit width.

const spbFormatVersion = 1

func init() {
	persist.Register("SPB-tree", loadSPB)
}

// EncodeSnapshot writes the SPB-tree payload.
func (s *SPB) EncodeSnapshot(w *persist.Writer) error {
	w.U16(spbFormatVersion)
	w.Blob(s.pager.Serialize())
	w.Blob(s.raf.Serialize())
	w.F64(s.opts.MaxDistance)
	w.U32(uint32(s.bits))
	w.Pivots(s.pivotIDs, s.pivotVals)
	w.U32(uint32(s.tree.Root()))
	w.U32(uint32(s.tree.Len()))
	w.U32(uint32(s.size))
	return nil
}

func loadSPB(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != spbFormatVersion {
		return nil, nil, fmt.Errorf("spb: unsupported payload version %d", v)
	}
	pagerBlob := r.Blob()
	rafBlob := r.Blob()
	maxDist := r.F64()
	bits := int(r.U32())
	pivotIDs, pivotVals := r.Pivots(ds.Sample())
	root := store.PageID(r.U32())
	treeLen := int(r.U32())
	size := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if maxDist <= 0 {
		return nil, nil, fmt.Errorf("spb: non-positive MaxDistance %v", maxDist)
	}
	if bits < 1 || bits*len(pivotIDs) > 64 {
		return nil, nil, fmt.Errorf("spb: %d pivots × %d bits exceeds 64-bit keys", len(pivotIDs), bits)
	}
	pager, err := store.LoadPager(pagerBlob)
	if err != nil {
		return nil, nil, err
	}
	raf, err := store.LoadRAF(pager, rafBlob, ds.Len())
	if err != nil {
		return nil, nil, err
	}
	s := &SPB{
		ds:        ds,
		pager:     pager,
		opts:      Options{MaxDistance: maxDist, Bits: bits},
		pivotIDs:  pivotIDs,
		pivotVals: pivotVals,
		raf:       raf,
		bits:      bits,
		size:      size,
	}
	if err := s.setGrid(); err != nil {
		return nil, nil, err
	}
	s.tree, err = bptree.Restore(pager, s.aug(), root, treeLen)
	if err != nil {
		return nil, nil, err
	}
	return s, pager, nil
}
