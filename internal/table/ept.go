package table

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
)

// The per-row families of Index: the Extreme Pivot Table of [24] (§3.2),
// EPT; the paper's EPT*, which replaces the group-based extreme-pivot
// assignment with the PSA pivot-selection algorithm (Algorithm 1); and
// DiskEPT*, the disk-based EPT* the paper's conclusion names as a
// promising direction (§7), which keeps EPT*'s pivots but stores the
// rows on sequential disk pages and the objects in a RAF, so the dataset
// no longer has to fit in main memory (EPT*'s stated limitation,
// §3.1/§7). Each object carries its own l pivots, so every row stores
// (pivot, distance) pairs (Fig 5) — the per-row layout of Table. A query
// computes its distance to the whole referenced-pivot pool up front
// through the batch kernel, then runs the table's staged scan — the same
// procedure as LAESA (§3.2), the column sweep applying Lemma 1 per
// private pivot set.

// EPTOptions configures the per-row families.
type EPTOptions struct {
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

// assignment gives an object of a per-row family its own pivots.
type assignment struct {
	l int // pivots a row
	// vals holds the value of every pivot a row may cite, by dataset id,
	// so queries keep working if a pivot object is later deleted from
	// the dataset. The pivots rows cite form the table's referenced-pivot
	// pool (Table.pivotRef).
	vals map[int32]core.Object
	// groups is EPT's: l random groups of m pivots; an object takes the
	// member of each maximizing |d(o,p) − μ_p|.
	groups *pivot.Groups
	// psa is EPT*'s and DiskEPT*'s: per-object pivots chosen by PSA to
	// maximize the lower-bound/true-distance ratio. Much more expensive
	// to build, fewest compdists at query time (Fig 14).
	psa *pivot.PSAState
}

// NewEPT builds the original EPT over all live objects.
func NewEPT(ds *core.Dataset, opts EPTOptions) (*Index, error) {
	return newEPT("EPT", ds, nil, opts)
}

// NewEPTStar builds EPT* over all live objects.
func NewEPTStar(ds *core.Dataset, opts EPTOptions) (*Index, error) {
	return newEPT("EPT*", ds, nil, opts)
}

// NewDiskEPTStar builds DiskEPT* over all live objects on pager.
func NewDiskEPTStar(ds *core.Dataset, pager *store.Pager, opts EPTOptions) (*Index, error) {
	return newEPT("DiskEPT*", ds, pager, opts)
}

// newEPT selects the family's pivots and builds its table, on pager's
// pages when there is one.
func newEPT(kind string, ds *core.Dataset, pager *store.Pager, opts EPTOptions) (*Index, error) {
	a, err := newAssignment(ds, kind == "EPT", opts)
	if err != nil {
		return nil, err
	}
	var raf *store.RAF
	if pager != nil {
		raf = store.NewRAF(pager)
	}
	t, err := perRow(kind, ds, pager, raf, a)
	if err == nil {
		err = t.fill(opts.Workers)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// perRow lays an empty per-row table for kind: in memory, or on pager's
// pages with the objects in raf.
func perRow(kind string, ds *core.Dataset, pager *store.Pager, raf *store.RAF, a *assignment) (*Index, error) {
	t := &Index{kind: kind, pager: pager, raf: raf, assign: a}
	if pager == nil {
		t.tab = newRefs("ept", ds, a.l)
		return t, nil
	}
	var err error
	t.tab, err = newPaged("ept", ds, pager, nil, a.l, raf.ReadObject, 1)
	return t, err
}

// newAssignment selects EPT's pivot groups (groups) or EPT*'s PSA
// candidates.
func newAssignment(ds *core.Dataset, groups bool, opts EPTOptions) (*assignment, error) {
	if opts.L <= 0 {
		return nil, fmt.Errorf("ept: non-positive L %d", opts.L)
	}
	a := &assignment{l: opts.L, vals: make(map[int32]core.Object)}
	if groups {
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
			return nil, err
		}
		a.groups = g
		for gi := range g.IDs {
			for j := range g.IDs[gi] {
				a.vals[g.IDs[gi][j]] = g.Vals[gi][j]
			}
		}
		return a, nil
	}
	st, err := pivot.NewPSAState(ds, opts.Sel)
	if err != nil {
		return nil, err
	}
	a.psa, a.l = st, min(opts.L, len(st.CandVals))
	for ci := range st.CandIDs {
		a.vals[st.CandIDs[ci]] = st.CandVals[ci]
	}
	return a, nil
}

// row assigns object o its pivots: their dataset ids, one a slot
// (PSAState.Assign returns min(l, candidates) = l of them and
// AssignExtreme the groups' L = l), and distances. It is safe to call
// concurrently, which the build's fan-out relies on.
func (a *assignment) row(sp *core.Space, o core.Object) ([]int32, []float64) {
	if a.groups != nil {
		return a.groups.AssignExtreme(sp, o)
	}
	return a.psa.Assign(sp, o, a.l)
}

// checkWidth rejects a row width the assignment cannot fill for an
// insert: a row holds at least one pivot, an EPT row one from each of the
// l groups, an EPT* row l of the PSA candidates.
func (a *assignment) checkWidth() error {
	if a.l < 1 || a.groups != nil && (a.l != a.groups.L || len(a.groups.IDs) != a.l) ||
		a.psa != nil && a.l > len(a.psa.CandIDs) {
		return fmt.Errorf("ept: %d pivots a row do not fit the pivot assignment", a.l)
	}
	return nil
}

// Snapshot payload encodings for EPT, EPT* and DiskEPT* (spec:
// docs/PERSISTENCE.md §EPT). The assignment state (Groups for EPT,
// PSAState for the star families) is persisted too, so inserts keep
// working after a restore.
//
// Version history of the in-memory payload:
//   - 1: pids/dists row-major (entry row*l+c).
//   - 2: pids/dists column-major (the struct-of-arrays layout: one
//     pivot column's rows after another). The wire stores dataset pivot
//     ids, not dense pool indices — the pool is rebuilt at load — so
//     the fields and op shapes match version 1 exactly. Version-1
//     payloads still load via a transpose.
//
// DiskEPT* keeps its own version: its row-major on-disk pages are
// untouched by the in-memory table redesign.
const (
	eptFormatVersion     = 2
	diskEPTFormatVersion = 1
)

// The in-memory payload's variant byte.
const (
	variantEPT     = 0
	variantEPTStar = 1
)

func encodePivotVals(w *store.Writer, m map[int32]core.Object) {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.U32(uint32(k))
		w.Object(m[k])
	}
}

func decodePivotVals(r *store.Reader, ds *core.Dataset) (map[int32]core.Object, error) {
	n := r.Count(6) // key + smallest object per entry
	m := make(map[int32]core.Object, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := int32(r.U32())
		m[k] = r.Object()
		if r.Err() == nil && !core.SameKind(ds.Sample(), m[k]) {
			return nil, fmt.Errorf("ept: pivot %d is not an object of the dataset's kind", k)
		}
	}
	return m, r.Err()
}

func encodeGroups(w *store.Writer, g *pivot.Groups) {
	w.U32(uint32(g.M))
	w.U32(uint32(g.L))
	w.U32(uint32(len(g.IDs)))
	for gi := range g.IDs {
		w.Int32s(g.IDs[gi])
		w.Objects(g.Vals[gi])
		w.Floats(g.Mu[gi])
	}
}

func decodeGroups(r *store.Reader, ds *core.Dataset) (*pivot.Groups, error) {
	g := &pivot.Groups{M: int(r.U32()), L: int(r.U32())}
	n := r.Count(12) // three u32 counts per group at minimum
	if r.Err() != nil {
		return nil, r.Err()
	}
	g.IDs = make([][]int32, n)
	g.Vals = make([][]core.Object, n)
	g.Mu = make([][]float64, n)
	for gi := 0; gi < n; gi++ {
		g.IDs[gi] = r.Int32s()
		g.Vals[gi] = r.Objects(ds.Sample())
		g.Mu[gi] = r.Floats()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(g.Vals[gi]) != len(g.IDs[gi]) || len(g.Mu[gi]) != len(g.IDs[gi]) || len(g.IDs[gi]) == 0 {
			return nil, fmt.Errorf("ept: group %d is empty or has mismatched id/value/mu lengths", gi)
		}
	}
	return g, nil
}

func encodePSA(w *store.Writer, st *pivot.PSAState) {
	w.Int32s(st.CandIDs)
	w.Objects(st.CandVals)
	w.Objects(st.ProbeVals)
	w.U32(uint32(len(st.ProbeCand)))
	for _, row := range st.ProbeCand {
		w.Floats(row)
	}
}

func decodePSA(r *store.Reader, ds *core.Dataset) (*pivot.PSAState, error) {
	st := &pivot.PSAState{
		CandIDs:   r.Int32s(),
		CandVals:  r.Objects(ds.Sample()),
		ProbeVals: r.Objects(ds.Sample()),
	}
	n := r.Count(4)
	if r.Err() != nil {
		return nil, r.Err()
	}
	if len(st.CandVals) != len(st.CandIDs) || len(st.CandIDs) == 0 {
		return nil, fmt.Errorf("ept: %d candidate values for %d candidate ids", len(st.CandVals), len(st.CandIDs))
	}
	if n != len(st.ProbeVals) {
		return nil, fmt.Errorf("ept: %d probe-distance rows for %d probes", n, len(st.ProbeVals))
	}
	st.ProbeCand = make([][]float64, n)
	for i := range st.ProbeCand {
		st.ProbeCand[i] = r.Floats()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(st.ProbeCand[i]) != len(st.CandIDs) {
			return nil, fmt.Errorf("ept: probe row %d has %d entries, want %d", i, len(st.ProbeCand[i]), len(st.CandIDs))
		}
	}
	return st, nil
}

// encodeEPT writes the in-memory EPT/EPT* payload: variant, row width,
// the flat table (column-major, dense pool indices mapped back to
// dataset pivot ids), the pivot-value pool and the assignment state.
func (t *Index) encodeEPT(w *store.Writer) error {
	a := t.assign
	variant := uint8(variantEPTStar)
	if a.groups != nil {
		variant = variantEPT
	}
	w.U16(eptFormatVersion)
	w.U8(variant)
	w.U32(uint32(a.l))
	ids, refs, cols := t.tab.IDs(), t.tab.Refs(), t.tab.Cols()
	w.Int32s(ids)
	pids := make([]int32, 0, len(ids)*a.l)
	dists := make([]float64, 0, len(ids)*a.l)
	for c := 0; c < a.l; c++ {
		for _, pi := range refs[c] {
			pids = append(pids, t.tab.PoolIDs()[pi])
		}
		dists = append(dists, cols[c]...)
	}
	w.Int32s(pids)
	w.Floats(dists)
	encodePivotVals(w, a.vals)
	if a.groups != nil {
		encodeGroups(w, a.groups)
	} else {
		encodePSA(w, a.psa)
	}
	return nil
}

// loadEPT reads the payload of kind, "EPT" or "EPT*", refusing one
// whose variant byte names the other family.
func loadEPT(kind string, ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	v := r.U16()
	if r.Err() == nil && v != 1 && v != eptFormatVersion {
		return nil, nil, fmt.Errorf("ept: unsupported payload version %d", v)
	}
	variant := r.U8()
	l := int(r.U32())
	ids := r.Int32s()
	pids := r.Int32s()
	dists := r.Floats()
	vals, err := decodePivotVals(r, ds)
	if err != nil {
		return nil, nil, err
	}
	if len(pids) != len(ids)*l || len(dists) != len(pids) {
		return nil, nil, fmt.Errorf("ept: table shape %d ids × %d pivots vs %d/%d entries", len(ids), l, len(pids), len(dists))
	}
	a := &assignment{l: l, vals: vals}
	switch {
	case variant == variantEPT && kind == "EPT":
		a.groups, err = decodeGroups(r, ds)
	case variant == variantEPTStar && kind == "EPT*":
		a.psa, err = decodePSA(r, ds)
	default:
		err = fmt.Errorf("ept: variant %d in a payload of kind %s", variant, kind)
	}
	if err == nil {
		err = a.checkWidth()
	}
	if err != nil {
		return nil, nil, err
	}
	t, _ := perRow(kind, ds, nil, nil, a) // in memory: no pager to fail
	// Rebuild the dense pool and the struct-of-arrays columns from the
	// wire's dataset pivot ids; version-1 payloads are row-major and
	// transpose here. Rows are added one by one — the order a fresh
	// build uses — so the dense pool numbering matches it.
	rows := len(ids)
	pv := make([]int32, l)
	row := make([]float64, l)
	for i, id := range ids {
		if id < 0 || int(id) >= ds.Len() || t.tab.Row(int(id)) >= 0 {
			return nil, nil, fmt.Errorf("ept: row %d holds object %d, outside the dataset's %d ids or stored twice", i, id, ds.Len())
		}
		for c := 0; c < l; c++ {
			at := c*rows + i
			if v == 1 {
				at = i*l + c
			}
			if _, ok := vals[pids[at]]; !ok {
				return nil, nil, fmt.Errorf("ept: row %d references pivot %d with no stored value", i, pids[at])
			}
			pv[c], row[c] = pids[at], dists[at]
		}
		if err := t.add(int(id), ds.Object(int(id)), pv, row); err != nil {
			return nil, nil, err
		}
	}
	return t, nil, nil
}

// encodeDiskEPT writes the DiskEPT* payload: the row width, the pager
// volume image, the RAF state, the paged table's section
// (Table.encodeFile), the pivot pool and the PSA state.
func (t *Index) encodeDiskEPT(w *store.Writer) error {
	w.U16(diskEPTFormatVersion)
	w.U32(uint32(t.assign.l))
	w.Blob(t.pager.Serialize())
	w.Blob(t.raf.Serialize())
	t.tab.encodeFile(w)
	encodePivotVals(w, t.assign.vals)
	encodePSA(w, t.assign.psa)
	return nil
}

func loadDiskEPT(ds *core.Dataset, r *store.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != diskEPTFormatVersion {
		return nil, nil, fmt.Errorf("ept: unsupported payload version %d", v)
	}
	a := &assignment{l: int(r.U32())}
	pagerBlob, rafBlob := r.Blob(), r.Blob()
	sec := decodeFile(r)
	var err error
	if a.vals, err = decodePivotVals(r, ds); err != nil {
		return nil, nil, err
	}
	if a.psa, err = decodePSA(r, ds); err != nil {
		return nil, nil, err
	}
	if err := a.checkWidth(); err != nil {
		return nil, nil, err
	}
	pager, raf, err := store.LoadVolume(pagerBlob, rafBlob, ds.Len())
	if err != nil {
		return nil, nil, err
	}
	t, err := perRow("DiskEPT*", ds, pager, raf, a)
	if err == nil {
		err = t.tab.openFile(sec, func(p int32) core.Object { return a.vals[p] })
	}
	if err != nil {
		return nil, nil, err
	}
	return t, pager, nil
}
