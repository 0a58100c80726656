package persist

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// Omni is the base every member of the Omni family (§5.2) shares: the
// pager its structure lives on, the RAF on that pager holding the
// objects, and the pivots spanning the Omni-coordinates (ids and
// snapshotted values). The OmniB+-tree (internal/omni), the
// Omni-sequential-file (internal/table) and the OmniR-tree
// (internal/mtree) each begin their payload with it (spec:
// docs/PERSISTENCE.md §Omni).
type Omni struct {
	Pager    *store.Pager
	RAF      *store.RAF
	PivotIDs []int
	Pivots   []core.Object
}

// omniFormatVersion is the Omni payloads' leading u16.
const omniFormatVersion = 1

// NewOmni starts a member's base on pager: an empty RAF, and the values
// of pivots, each of which must be a live object of ds.
func NewOmni(ds *core.Dataset, pager *store.Pager, pivots []int) (Omni, error) {
	if len(pivots) == 0 {
		return Omni{}, fmt.Errorf("omni: no pivots")
	}
	b := Omni{Pager: pager, RAF: store.NewRAF(pager), PivotIDs: append([]int(nil), pivots...)}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return Omni{}, fmt.Errorf("omni: pivot %d is not a live object", p)
		}
		b.Pivots = append(b.Pivots, v)
	}
	return b, nil
}

// EncodeOmni writes the family version and the base: the pager's volume
// image, the RAF state, and the pivots. The member's own state follows.
func EncodeOmni(w *store.Writer, b Omni) {
	w.U16(omniFormatVersion)
	w.Blob(b.Pager.Serialize())
	w.Blob(b.RAF.Serialize())
	w.Pivots(b.PivotIDs, b.Pivots)
}

// DecodeOmni reads what EncodeOmni writes and reopens the volume.
func DecodeOmni(ds *core.Dataset, r *store.Reader) (Omni, error) {
	if v := r.U16(); r.Err() == nil && v != omniFormatVersion {
		return Omni{}, fmt.Errorf("omni: unsupported payload version %d", v)
	}
	pagerImage, rafState := r.Blob(), r.Blob()
	ids, vals := r.Pivots(ds.Sample())
	if err := r.Err(); err != nil {
		return Omni{}, err
	}
	pager, raf, err := store.LoadVolume(pagerImage, rafState, ds.Len())
	if err != nil {
		return Omni{}, err
	}
	return Omni{Pager: pager, RAF: raf, PivotIDs: ids, Pivots: vals}, nil
}
