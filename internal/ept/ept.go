// Package ept implements the Extreme Pivot Table of [24] (§3.2) and the
// paper's improved EPT*, which replaces the group-based extreme-pivot
// assignment with the PSA pivot-selection algorithm (Algorithm 1). Both
// are in-memory tables like LAESA, but each object carries its *own* l
// pivots, so every row stores (pivot id, distance) pairs (Fig 5).
package ept

import (
	"fmt"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/table"
)

// Variant selects between the original EPT and the paper's EPT*.
type Variant int

// The two variants of §3.2.
const (
	// Original is EPT [24]: l random groups of m pivots; every object
	// takes the group member maximizing |d(o,p) − μ_p|.
	Original Variant = iota
	// Star is EPT*: per-object pivots chosen by PSA to maximize the
	// lower-bound/true-distance ratio. Much more expensive to build,
	// fewest compdists at query time (Fig 14).
	Star
)

// Options configures construction.
type Options struct {
	// L is the number of pivots per object (matches |P| of the other
	// indexes so comparisons are fair).
	L int
	// M is the EPT group size; 0 lets EstimateGroupSize pick it from
	// Equation (1) using Radius.
	M int
	// Radius feeds the group-size estimate (a typical query radius).
	Radius float64
	// Sel tunes pivot sampling.
	Sel pivot.Options
	// Workers parallelizes the per-object pivot assignment during
	// construction (the dominant cost, especially for EPT*): 0 or 1
	// builds sequentially, negative uses GOMAXPROCS, otherwise that many
	// goroutines. The resulting table is identical to a sequential build.
	Workers int
}

// EPT is the extreme pivot table index: the per-row layout of
// table.Table. Column c holds, for every row, the c-th private pivot (as
// a dense index into the referenced-pivot pool) and its distance. A query
// computes its distance to the whole referenced pool up front through
// the batch kernel, then runs the table's staged scan — the same
// procedure as LAESA (§3.2), with the indexed column sweep applying
// Lemma 1 per private pivot set.
type EPT struct {
	ds      *core.Dataset
	variant Variant
	l       int
	tab     *table.Table

	// pivotVal snapshots pivot object values so queries keep working if a
	// pivot object is later deleted from the dataset. The pivots rows cite
	// form the table's referenced-pivot pool (table.Table.PivotRef).
	pivotVal map[int32]core.Object

	groups *pivot.Groups   // Original: assignment state for inserts
	psa    *pivot.PSAState // Star: assignment state for inserts
}

// New builds an EPT or EPT* over all live objects.
func New(ds *core.Dataset, variant Variant, opts Options) (*EPT, error) {
	e, assign, err := prepare(ds, variant, opts)
	if err != nil {
		return nil, err
	}
	e.tab = table.NewRefs("ept", ds, e.l)
	if err := e.fill(assign, opts.Workers, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// prepare selects the variant's pivots and returns an EPT shell with its
// row width and assignment state, and the function assigning one object
// its row — safe to call concurrently, since construction fans the
// per-object assignments out across Options.Workers goroutines (§6.2:
// objects are independent). The caller creates the table.
func prepare(ds *core.Dataset, variant Variant, opts Options) (*EPT, func(o core.Object) ([]int32, []float64), error) {
	if opts.L <= 0 {
		return nil, nil, fmt.Errorf("ept: non-positive L %d", opts.L)
	}
	e := newEmpty(ds, variant)
	sp := ds.Space()
	var assign func(o core.Object) ([]int32, []float64)
	switch variant {
	case Original:
		m := opts.M
		if m <= 0 {
			r := opts.Radius
			if r <= 0 {
				r = 1
			}
			m = pivot.EstimateGroupSize(ds, opts.L, r, opts.Sel)
		}
		g, err := pivot.SelectGroups(ds, opts.L, m, opts.Sel)
		if err != nil {
			return nil, nil, err
		}
		e.groups = g
		e.l = opts.L
		for gi := range g.IDs {
			for j := range g.IDs[gi] {
				e.pivotVal[g.IDs[gi][j]] = g.Vals[gi][j]
			}
		}
		assign = func(o core.Object) ([]int32, []float64) {
			return g.AssignExtreme(sp, o)
		}
	case Star:
		st, err := pivot.NewPSAState(ds, opts.Sel)
		if err != nil {
			return nil, nil, err
		}
		e.l = min(opts.L, len(st.CandVals))
		e.psa = st
		for ci := range st.CandIDs {
			e.pivotVal[st.CandIDs[ci]] = st.CandVals[ci]
		}
		assign = func(o core.Object) ([]int32, []float64) {
			return st.Assign(sp, o, e.l)
		}
	default:
		return nil, nil, fmt.Errorf("ept: unknown variant %d", variant)
	}
	return e, assign, nil
}

// fill assigns every live object its row, fanned out over workers, and
// appends the rows in LiveIDs order regardless of worker count, so the
// table is identical to a sequential build. before, when set, runs ahead
// of each row's append (DiskEPT*: the object's RAF record).
func (e *EPT) fill(assign func(o core.Object) ([]int32, []float64), workers int, before func(id int) error) error {
	ids := e.ds.LiveIDs()
	pvs := make([][]int32, len(ids))
	dvs := make([][]float64, len(ids))
	core.ParallelFor(len(ids), workers, func(start, end int) {
		for i := start; i < end; i++ {
			pvs[i], dvs[i] = assign(e.ds.Object(ids[i]))
		}
	})
	for i, id := range ids {
		if before != nil {
			if err := before(id); err != nil {
				return err
			}
		}
		if err := e.appendRow(id, pvs[i], dvs[i]); err != nil {
			return err
		}
	}
	return nil
}

// newEmpty prepares an EPT shell shared by the constructors and the
// snapshot loaders; the caller sets the row width and creates the table.
func newEmpty(ds *core.Dataset, variant Variant) *EPT {
	return &EPT{
		ds:       ds,
		variant:  variant,
		pivotVal: make(map[int32]core.Object),
	}
}

// appendRow adds one object's row, rewriting the assignment's pivot ids
// (pv, owned by the caller, one per slot: PSAState.Assign returns
// min(l, candidates) = l of them and AssignExtreme the groups' L = l)
// into pool references in place, admitting a pivot to the pool on its
// first reference.
func (e *EPT) appendRow(id int, pv []int32, dv []float64) error {
	for c, p := range pv {
		pv[c] = e.tab.PivotRef(p, e.pivotVal[p])
	}
	return e.tab.Append(id, e.ds.Object(id), pv, dv)
}

// Name returns "EPT" or "EPT*".
func (e *EPT) Name() string {
	if e.variant == Star {
		return "EPT*"
	}
	return "EPT"
}

// Len returns the number of indexed objects.
func (e *EPT) Len() int { return e.tab.Len() }

// RangeSearch answers MRQ(q, r) by a filtered table scan.
func (e *EPT) RangeSearch(q core.Object, r float64) ([]int, error) {
	return e.tab.Range(q, r, nil)
}

// KNNSearch answers MkNNQ(q, k) with an infinite start radius tightened by
// verification, in storage order (the per-row layout has no zones).
func (e *EPT) KNNSearch(q core.Object, k int) ([]core.Neighbor, error) {
	return e.tab.KNN(q, k, nil)
}

// RangeSearchAccept answers MRQ(q, r) restricted to accepted ids
// (core.AcceptSearcher): the accept test runs on every row that survives
// the indexed column sweep, before its distance is computed, so rejected
// candidates cost zero compdists while Lemma 1 pruning is untouched. A
// nil accept is the unfiltered search.
func (e *EPT) RangeSearchAccept(q core.Object, r float64, accept core.Filter) ([]int, error) {
	return e.tab.Range(q, r, accept)
}

// KNNSearchAccept answers MkNNQ(q, k) over accepted ids only.
func (e *EPT) KNNSearchAccept(q core.Object, k int, accept core.Filter) ([]core.Neighbor, error) {
	return e.tab.KNN(q, k, accept)
}

// Pushdown reports plan.PushdownScan: the per-row layout has no zone
// map, so a probe tests every row Lemma 1 keeps in a pass over all of
// them (table.Table.Pushdown).
func (e *EPT) Pushdown() plan.Pushdown { return e.tab.Pushdown() }

// Insert assigns pivots to the new object (group-extreme for EPT, PSA for
// EPT*) and appends its row. The assignment distances make EPT updates
// expensive, as Table 6 reports.
func (e *EPT) Insert(id int) error {
	o, err := e.tab.Insertable(id)
	if err != nil {
		return err
	}
	var pv []int32
	var dv []float64
	if e.variant == Original {
		// The original EPT re-estimates the group μ values before
		// assigning pivots to the new object — the dominant update cost
		// of Table 6.
		e.groups.ReestimateMu(e.ds, pivot.Options{Seed: int64(id)})
		pv, dv = e.groups.AssignExtreme(e.ds.Space(), o)
	} else {
		pv, dv = e.psa.Assign(e.ds.Space(), o, e.l)
	}
	return e.appendRow(id, pv, dv)
}

// Delete removes the object's row.
func (e *EPT) Delete(id int) error { return e.tab.Remove(id) }

// Validate checks that the table's row state is in step
// (table.Table.Validate).
func (e *EPT) Validate() error { return e.tab.Validate() }

// Table returns the index's pivot table, whose row order tests model.
func (e *EPT) Table() *table.Table { return e.tab }

// PageAccesses returns 0: EPT is an in-memory index.
func (e *EPT) PageAccesses() int64 { return 0 }

// ResetStats is a no-op.
func (e *EPT) ResetStats() {}

// MemBytes reports the table size: EPT stores a pivot reference next to
// every distance, so it is larger than LAESA's table (Table 4).
func (e *EPT) MemBytes() int64 { return e.tab.MemBytes() }

// DiskBytes returns 0.
func (e *EPT) DiskBytes() int64 { return 0 }
