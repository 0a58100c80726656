// Package omni implements the OmniB+-tree of the Omni-family [17] (§5.2):
// pivot-space coordinates ("Omni-coordinates") of every object indexed
// by one B+-tree per pivot, with the objects themselves in a separate
// random-access file so object size never bloats the index. The
// family's other two members are families of the repository's engines:
// the Omni-sequential-file is a paged pivot table (internal/table) and
// the OmniR-tree — the family's best performer, benchmarked in §6 — a
// region tree (internal/mtree). All three share persist.Omni, the base
// of pager, RAF and pivots, and its payload section.
package omni

import (
	"metricindex/internal/core"
	"metricindex/internal/store"
)

// point computes the Omni-coordinates of an object through the batch
// kernel (l counted distances).
func (t *BPlus) point(o core.Object) []float64 {
	pt := make([]float64, len(t.base.Pivots))
	t.ds.Space().DistanceMany(o, t.base.Pivots, pt)
	return pt
}

// queryPoint computes a query's Omni-coordinates into pooled scratch;
// the caller returns the Scratch when the query finishes, so
// steady-state queries do not allocate the coordinate buffer.
func (t *BPlus) queryPoint(q core.Object) (*core.Scratch, []float64) {
	sc := t.scratch.Get()
	qd := sc.GrowQD(len(t.base.Pivots))
	t.ds.Space().DistanceMany(q, t.base.Pivots, qd)
	return sc, qd
}

// appendRAF stores the object bytes and returns the record offset.
func (t *BPlus) appendRAF(id int) (int64, error) {
	return t.base.RAF.Append(id, store.EncodeObject(nil, t.ds.Object(id)))
}

// verifyRange fetches a candidate and checks d(q, o) <= r.
func (t *BPlus) verifyRange(q core.Object, id int, r float64) (bool, error) {
	o, err := t.base.RAF.ReadObject(id)
	if err != nil {
		return false, err
	}
	return t.ds.Space().Distance(q, o) <= r, nil
}

// PageAccesses reports the pager's accesses: the trees and the RAF.
func (t *BPlus) PageAccesses() int64 { return t.base.Pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (t *BPlus) ResetStats() { t.base.Pager.ResetStats() }

// DiskBytes reports the trees + RAF footprint (l trees, hence the
// redundant storage the paper flags).
func (t *BPlus) DiskBytes() int64 { return t.base.Pager.DiskBytes() }
