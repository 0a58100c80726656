package mtree

import (
	"fmt"
	"maps"
	"slices"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/store"
)

// Snapshot state of a tree handle (spec: docs/PERSISTENCE.md §M-tree and
// §Omni). The nodes already live on pager pages, which the payload
// writes first: the PM-tree's and the OmniR-tree's own (EncodeSnapshot),
// or CPT's, whose volume the tree shares. The state is,
// for the M-tree, its version, options and pivot values; then the root
// page and the size; for the R-tree, its coordinate bound; and the
// per-object table — the M-tree's leaf directory or the R-tree's point
// table. The M-tree's split rng is reseeded from the seed: future splits
// may promote differently than an uninterrupted run, but every resulting
// tree is valid and answers identically.

const mtreeFormatVersion = 1

// The PM-tree's and the OmniR-tree's payloads (spec: docs/PERSISTENCE.md
// §PM-tree and §Omni): the PM-tree's version and volume image, or the
// Omni base section (persist.EncodeOmni); then the handle state.

const pmtreeFormatVersion = 1

func init() {
	for _, kind := range []string{"PM-tree", "OmniR-tree"} {
		persist.Register(kind, func(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
			return loadTree(kind, ds, r)
		})
	}
}

// EncodeSnapshot writes the PM-tree's or the OmniR-tree's payload.
func (t *Tree) EncodeSnapshot(w *store.Writer) error {
	if t.fam.ball {
		w.U16(pmtreeFormatVersion)
		w.Blob(t.pager.Serialize())
	} else {
		persist.EncodeOmni(w, persist.Omni{Pager: t.pager, RAF: t.raf, PivotIDs: t.pivotIDs, Pivots: t.pivots})
	}
	return t.EncodeState(w)
}

// loadTree reads the payload of kind. A PM-tree payload must hold rings:
// a plain M-tree is no index of its own.
func loadTree(kind string, ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	var b persist.Omni
	var err error
	if kind == "PM-tree" {
		if v := r.U16(); r.Err() == nil && v != pmtreeFormatVersion {
			return nil, nil, fmt.Errorf("pmtree: unsupported payload version %d", v)
		}
		image := r.Blob()
		if err = r.Err(); err == nil {
			b.Pager, err = store.LoadPager(image)
		}
	} else {
		b, err = persist.DecodeOmni(ds, r)
	}
	if err != nil {
		return nil, nil, err
	}
	t, err := RestoreState(ds, b.Pager, b.RAF, b.Pivots, r)
	if err != nil {
		return nil, nil, err
	}
	if t.NumPivots() == 0 {
		return nil, nil, fmt.Errorf("pmtree: snapshot holds a plain M-tree (no rings)")
	}
	t.pivotIDs = b.PivotIDs
	return t, b.Pager, nil
}

// EncodeState writes the handle state.
func (t *Tree) EncodeState(w *store.Writer) error {
	if t.fam.ball {
		w.U16(mtreeFormatVersion)
		w.U32(uint32(len(t.pivots)))
		w.I64(t.seed)
		w.Objects(t.pivots)
	}
	t.encodeTable(w)
	return nil
}

// encodeTable writes the root page, the size and the per-object table.
func (t *Tree) encodeTable(w *store.Writer) {
	w.U32(uint32(t.root))
	w.U32(uint32(t.size))
	if !t.fam.ball {
		w.F64(t.maxCoord)
	}
	ids := slices.Sorted(maps.Keys(t.leafOf))
	if !t.fam.ball {
		ids = slices.Sorted(maps.Keys(t.points))
	}
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.U32(uint32(id))
		if t.fam.ball {
			w.U32(uint32(t.leafOf[id]))
		} else {
			w.Floats(t.points[id])
		}
	}
}

// RestoreState rebinds a handle over an already-reopened pager: an
// M-tree's when raf is nil (its pivots come from the state), otherwise an
// R-tree's over pivots, whose objects are in raf. It checks the state
// against the pages (check).
func RestoreState(ds *core.Dataset, pager *store.Pager, raf *store.RAF, pivots []core.Object, r *store.Reader) (*Tree, error) {
	fam, seed := rFamily, int64(0)
	if raf == nil {
		if v := r.U16(); r.Err() == nil && v != mtreeFormatVersion {
			return nil, fmt.Errorf("mtree: unsupported payload version %d", v)
		}
		l := int(r.U32())
		fam, seed, pivots = mFamily, r.I64(), r.Objects(ds.Sample())
		if r.Err() == nil && len(pivots) != l {
			return nil, fmt.Errorf("mtree: %d pivot values for NumPivots=%d", len(pivots), l)
		}
	}
	t := newTree(ds, pager, fam, pivots, seed)
	t.raf = raf
	return t, t.decodeTable(r)
}

// decodeTable reads what encodeTable wrote and checks the tree against it.
func (t *Tree) decodeTable(r *store.Reader) error {
	t.root = store.PageID(r.U32())
	t.size = int(r.U32())
	if !t.fam.ball {
		t.maxCoord = r.F64()
	}
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		id := int(r.U32())
		if t.fam.ball {
			t.leafOf[id] = store.PageID(r.U32())
		} else if pt := r.Floats(); len(pt) == len(t.pivots) {
			t.points[id] = pt
		} else if r.Err() == nil {
			return fmt.Errorf("mtree: point %d has %d coordinates, want %d", id, len(pt), len(t.pivots))
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	return t.check(false)
}
