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

func decodePivotVals(r *persist.Reader) map[int32]core.Object {
	n := r.Count(6) // key + smallest object per entry
	if r.Err() != nil {
		return nil
	}
	m := make(map[int32]core.Object, n)
	for i := 0; i < n; i++ {
		k := int32(r.U32())
		m[k] = r.Object()
		if r.Err() != nil {
			return nil
		}
	}
	return m
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

func decodeGroups(r *persist.Reader) (*pivot.Groups, error) {
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
		g.Vals[gi] = r.Objects()
		g.Mu[gi] = r.Floats()
		if r.Err() != nil {
			return nil, r.Err()
		}
		if len(g.Vals[gi]) != len(g.IDs[gi]) || len(g.Mu[gi]) != len(g.IDs[gi]) {
			return nil, fmt.Errorf("ept: group %d has mismatched id/value/mu lengths", gi)
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

func decodePSA(r *persist.Reader) (*pivot.PSAState, error) {
	st := &pivot.PSAState{
		CandIDs:   r.Int32s(),
		CandVals:  r.Objects(),
		ProbeVals: r.Objects(),
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
			pids = append(pids, e.poolIDs[pi])
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
	pivotVal := decodePivotVals(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if l <= 0 {
		return nil, nil, fmt.Errorf("ept: non-positive row width %d", l)
	}
	if len(pids) != len(ids)*l || len(dists) != len(pids) {
		return nil, nil, fmt.Errorf("ept: table shape %d ids × %d pivots vs %d/%d entries", len(ids), l, len(pids), len(dists))
	}
	e := newEmpty(ds, variant)
	e.l = l
	e.tab = table.NewRefs("ept", ds, l)
	e.pivotVal = pivotVal
	var err error
	switch e.variant {
	case Original:
		e.groups, err = decodeGroups(r)
	case Star:
		e.psa, err = decodePSA(r)
	default:
		err = fmt.Errorf("ept: unknown variant %d", e.variant)
	}
	if err != nil {
		return nil, nil, err
	}
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
			refs[c], row[c] = e.poolIdx(pids[at]), dists[at]
		}
		e.tab.Append(int(id), ds.Object(int(id)), refs, row)
	}
	return e, nil, nil
}

// EncodeSnapshot writes the DiskEPT* payload: the pager volume image, the
// RAF state, the table page list and row count, the row directory, the
// pivot pool and the PSA state.
func (t *DiskEPT) EncodeSnapshot(w *persist.Writer) error {
	w.U16(diskEPTFormatVersion)
	w.U32(uint32(t.l))
	w.Blob(t.pager.Serialize())
	w.Blob(t.raf.Serialize())
	w.PageIDs(t.pages)
	w.U32(uint32(t.rows))
	rowIDs := make([]int, 0, len(t.rowOf))
	for id := range t.rowOf {
		rowIDs = append(rowIDs, id)
	}
	sort.Ints(rowIDs)
	w.U32(uint32(len(rowIDs)))
	for _, id := range rowIDs {
		w.U32(uint32(id))
		w.U32(uint32(t.rowOf[id]))
	}
	encodePivotVals(w, t.pivotVal)
	encodePSA(w, t.psa)
	return nil
}

func loadDiskEPT(ds *core.Dataset, r *persist.Reader) (core.Index, *store.Pager, error) {
	if v := r.U16(); r.Err() == nil && v != diskEPTFormatVersion {
		return nil, nil, fmt.Errorf("ept: unsupported payload version %d", v)
	}
	l := int(r.U32())
	pagerBlob := r.Blob()
	rafBlob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if l <= 0 {
		return nil, nil, fmt.Errorf("ept: non-positive row width %d", l)
	}
	pager, err := store.LoadPager(pagerBlob)
	if err != nil {
		return nil, nil, err
	}
	raf, err := store.LoadRAF(pager, rafBlob, ds.Len())
	if err != nil {
		return nil, nil, err
	}
	t := &DiskEPT{
		ds:      ds,
		pager:   pager,
		raf:     raf,
		l:       l,
		rowSize: 4 + l*12,
	}
	t.pages = r.PageIDs()
	t.rows = int(r.U32())
	n := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if t.rowsPerPage() < 1 {
		return nil, nil, fmt.Errorf("ept: page size %d below one row (%d bytes)", pager.PageSize(), t.rowSize)
	}
	for _, pid := range t.pages {
		if int(pid) >= pager.Pages() {
			return nil, nil, fmt.Errorf("ept: table page %d beyond volume (%d pages)", pid, pager.Pages())
		}
	}
	if t.rows < 0 || (len(t.pages) > 0 && (t.rows+t.rowsPerPage()-1)/t.rowsPerPage() > len(t.pages)) {
		return nil, nil, fmt.Errorf("ept: %d rows overflow %d table pages", t.rows, len(t.pages))
	}
	t.rowOf = make(map[int]int, n)
	for i := 0; i < n; i++ {
		id := int(r.U32())
		row := int(r.U32())
		if row < 0 || row >= t.rows {
			return nil, nil, fmt.Errorf("ept: directory row %d out of range (%d rows)", row, t.rows)
		}
		t.rowOf[id] = row
	}
	t.pivotVal = decodePivotVals(r)
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	t.psa, err = decodePSA(r)
	if err != nil {
		return nil, nil, err
	}
	return t, pager, nil
}
