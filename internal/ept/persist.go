package ept

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
)

// Snapshot payload encodings for EPT, EPT* and DiskEPT* (spec:
// docs/PERSISTENCE.md §EPT). The pivot-assignment state (Groups for the
// original, PSAState for the star variants) is persisted too, so inserts
// keep working after a restore.
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

func init() {
	persist.Register("EPT", loadMemEPT)
	persist.Register("EPT*", loadMemEPT)
	persist.Register("DiskEPT*", loadDiskEPT)
}

func encodePivotVals(w *persist.Writer, m map[int32]core.Object) {
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

func decodePivotVals(r *persist.Reader, ds *core.Dataset) (map[int32]core.Object, error) {
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

func encodeGroups(w *persist.Writer, g *pivot.Groups) {
	w.U32(uint32(g.M))
	w.U32(uint32(g.L))
	w.U32(uint32(len(g.IDs)))
	for gi := range g.IDs {
		w.Int32s(g.IDs[gi])
		w.Objects(g.Vals[gi])
		w.Floats(g.Mu[gi])
	}
}

func decodeGroups(r *persist.Reader, ds *core.Dataset) (*pivot.Groups, error) {
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

func encodePSA(w *persist.Writer, st *pivot.PSAState) {
	w.Int32s(st.CandIDs)
	w.Objects(st.CandVals)
	w.Objects(st.ProbeVals)
	w.U32(uint32(len(st.ProbeCand)))
	for _, row := range st.ProbeCand {
		w.Floats(row)
	}
}

func decodePSA(r *persist.Reader, ds *core.Dataset) (*pivot.PSAState, error) {
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

// EncodeSnapshot writes the in-memory EPT/EPT* payload: variant, row
// width, the flat table (column-major, dense pool indices mapped back to
// dataset pivot ids), the pivot-value pool and the assignment state.
func (e *EPT) EncodeSnapshot(w *persist.Writer) error {
	w.U16(eptFormatVersion)
	w.U8(uint8(e.variant))
	w.U32(uint32(e.l))
	ids, refs, cols := e.tab.IDs(), e.tab.Refs(), e.tab.Cols()
	w.Int32s(ids)
	pids := make([]int32, 0, len(ids)*e.l)
	dists := make([]float64, 0, len(ids)*e.l)
	for c := 0; c < e.l; c++ {
		for _, pi := range refs[c] {
			pids = append(pids, e.tab.PoolIDs()[pi])
		}
		dists = append(dists, cols[c]...)
	}
	w.Int32s(pids)
	w.Floats(dists)
	encodePivotVals(w, e.pivotVal)
	switch e.variant {
	case Original:
		encodeGroups(w, e.groups)
	case Star:
		encodePSA(w, e.psa)
	default:
		return fmt.Errorf("ept: unknown variant %d", e.variant)
	}
	return nil
}

func loadMemEPT(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	v := r.U16()
	if r.Err() == nil && v != 1 && v != eptFormatVersion {
		return nil, nil, fmt.Errorf("ept: unsupported payload version %d", v)
	}
	variant := Variant(r.U8())
	l := int(r.U32())
	ids := r.Int32s()
	pids := r.Int32s()
	dists := r.Floats()
	pivotVal, err := decodePivotVals(r, ds)
	if err != nil {
		return nil, nil, err
	}
	if len(pids) != len(ids)*l || len(dists) != len(pids) {
		return nil, nil, fmt.Errorf("ept: table shape %d ids × %d pivots vs %d/%d entries", len(ids), l, len(pids), len(dists))
	}
	e := newEmpty(ds, variant)
	e.l = l
	e.pivotVal = pivotVal
	switch e.variant {
	case Original:
		e.groups, err = decodeGroups(r, ds)
	case Star:
		e.psa, err = decodePSA(r, ds)
	default:
		err = fmt.Errorf("ept: unknown variant %d", e.variant)
	}
	if err == nil {
		err = e.checkWidth()
	}
	if err != nil {
		return nil, nil, err
	}
	e.tab = table.NewRefs("ept", ds, l)
	// Rebuild the dense pool and the struct-of-arrays columns from the
	// wire's dataset pivot ids; version-1 payloads are row-major and
	// transpose here. Rows are appended one by one — the order a fresh
	// build uses — so the dense pool numbering matches it.
	rows := len(ids)
	refs := make([]int32, l)
	row := make([]float64, l)
	for i, id := range ids {
		if id < 0 || int(id) >= ds.Len() || e.tab.Row(int(id)) >= 0 {
			return nil, nil, fmt.Errorf("ept: row %d holds object %d, outside the dataset's %d ids or stored twice", i, id, ds.Len())
		}
		for c := 0; c < l; c++ {
			at := c*rows + i
			if v == 1 {
				at = i*l + c
			}
			if _, ok := e.pivotVal[pids[at]]; !ok {
				return nil, nil, fmt.Errorf("ept: row %d references pivot %d with no stored value", i, pids[at])
			}
			refs[c], row[c] = e.tab.PivotRef(pids[at], e.pivotVal[pids[at]]), dists[at]
		}
		if err := e.tab.Append(int(id), ds.Object(int(id)), refs, row); err != nil {
			return nil, nil, err
		}
	}
	return e, nil, nil
}

// checkWidth rejects a row width the assignment state cannot fill for an
// insert: a row holds at least one pivot, an EPT row one from each of the
// l groups, an EPT* row l of the PSA candidates.
func (e *EPT) checkWidth() error {
	if e.l < 1 || e.variant == Original && (e.l != e.groups.L || len(e.groups.IDs) != e.l) ||
		e.variant == Star && e.l > len(e.psa.CandIDs) {
		return fmt.Errorf("ept: %d pivots a row do not fit the pivot assignment", e.l)
	}
	return nil
}

// EncodeSnapshot writes the DiskEPT* payload: the row width, the pager
// volume image, the RAF state, the paged table's section
// (table.Table.EncodeFile), the pivot pool and the PSA state.
func (d *DiskEPT) EncodeSnapshot(w *persist.Writer) error {
	w.U16(diskEPTFormatVersion)
	w.U32(uint32(d.e.l))
	w.Blob(d.pager.Serialize())
	w.Blob(d.raf.Serialize())
	d.e.tab.EncodeFile(w)
	encodePivotVals(w, d.e.pivotVal)
	encodePSA(w, d.e.psa)
	return nil
}

func loadDiskEPT(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != diskEPTFormatVersion {
		return nil, nil, fmt.Errorf("ept: unsupported payload version %d", v)
	}
	e := newEmpty(ds, Star)
	e.l = int(r.U32())
	pagerBlob, rafBlob := r.Blob(), r.Blob()
	sec := table.DecodeFile(r)
	var err error
	if e.pivotVal, err = decodePivotVals(r, ds); err != nil {
		return nil, nil, err
	}
	if e.psa, err = decodePSA(r, ds); err != nil {
		return nil, nil, err
	}
	if err := e.checkWidth(); err != nil {
		return nil, nil, err
	}
	pager, raf, err := store.LoadVolume(pagerBlob, rafBlob, ds.Len())
	if err != nil {
		return nil, nil, err
	}
	d, err := newDisk(e, pager, raf)
	if err == nil {
		err = e.tab.Open(sec, func(p int32) core.Object { return e.pivotVal[p] })
	}
	if err != nil {
		return nil, nil, err
	}
	return d, pager, nil
}
