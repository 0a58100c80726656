// Package omni implements the Omni-family of [17] (§5.2): pivot-space
// coordinates ("Omni-coordinates") of every object indexed by an existing
// access method, with the objects themselves in a separate random-access
// file so object size never bloats the index. Three members are provided,
// as in the paper: the Omni-sequential-file, the OmniB+-tree (one B+-tree
// per pivot), and the OmniR-tree (one R-tree over all coordinates — the
// best performer of the family and the one benchmarked in §6).
package omni

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// base carries what all family members share: the pivot table, the RAF,
// and the per-query scratch pool.
type base struct {
	ds        *core.Dataset
	pager     *store.Pager
	raf       *store.RAF
	pivotIDs  []int
	pivotVals []core.Object
	scratch   core.ScratchPool
}

func newBase(ds *core.Dataset, pager *store.Pager, pivots []int) (*base, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("omni: no pivots")
	}
	b := &base{
		ds:       ds,
		pager:    pager,
		raf:      store.NewRAF(pager),
		pivotIDs: append([]int(nil), pivots...),
	}
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("omni: pivot %d is not a live object", p)
		}
		b.pivotVals = append(b.pivotVals, v)
	}
	return b, nil
}

// point computes the Omni-coordinates of an object through the batch
// kernel (l counted distances).
func (b *base) point(o core.Object) []float64 {
	pt := make([]float64, len(b.pivotVals))
	b.ds.Space().DistanceMany(o, b.pivotVals, pt)
	return pt
}

// queryPoint computes a query's Omni-coordinates into pooled scratch;
// the caller returns the Scratch when the query finishes, so
// steady-state queries do not allocate the coordinate buffer.
func (b *base) queryPoint(q core.Object) (*core.Scratch, []float64) {
	sc := b.scratch.Get()
	qd := sc.GrowQD(len(b.pivotVals))
	b.ds.Space().DistanceMany(q, b.pivotVals, qd)
	return sc, qd
}

// buildPoints computes the Omni-coordinates of every given object, fanning
// the distance computations out across workers goroutines (0 or 1 =
// sequential, negative = GOMAXPROCS). The pivot table is the
// embarrassingly-parallel part of every family member's construction; the
// disk structures themselves are still written sequentially by the
// callers, so the built index is identical to a sequential build.
func (b *base) buildPoints(ids []int, workers int) [][]float64 {
	pts := make([][]float64, len(ids))
	core.ParallelFor(len(ids), workers, func(start, end int) {
		for i := start; i < end; i++ {
			pts[i] = b.point(b.ds.Object(ids[i]))
		}
	})
	return pts
}

// appendRAF stores the object bytes and returns the record offset.
func (b *base) appendRAF(id int) (int64, error) {
	return b.raf.Append(id, store.EncodeObject(nil, b.ds.Object(id)))
}

// verifyRange fetches a candidate and checks d(q, o) <= r.
func (b *base) verifyRange(q core.Object, id int, r float64) (bool, error) {
	o, err := b.raf.ReadObject(id)
	if err != nil {
		return false, err
	}
	return b.ds.Space().Distance(q, o) <= r, nil
}

// PageAccesses reports the pager's accesses: the member's structure and
// the RAF.
func (b *base) PageAccesses() int64 { return b.pager.PageAccesses() }

// ResetStats zeroes the pager counters.
func (b *base) ResetStats() { b.pager.ResetStats() }

// DiskBytes reports the structure + RAF footprint (for the OmniB+-tree
// l trees, hence the redundant storage the paper flags).
func (b *base) DiskBytes() int64 { return b.pager.DiskBytes() }
