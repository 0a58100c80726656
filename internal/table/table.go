// Package table implements the pivot-based table indexes: AESA (the
// O(n²) theoretical baseline of §3.1); the six families of one handle,
// Index — LAESA (§3.1), EPT and EPT* (§3.2), CPT (§3.3), the
// Omni-sequential-file (§5.2) and DiskEPT* (§7); and Table, the one
// pivot table — row state, update path, staged scan and codec — they
// all share, Omni-seq and DiskEPT* with its rows on disk pages.
package table

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/store"
)

// verifyChunk is the candidate batch size of the chunked DistanceMany
// verification path.
const verifyChunk = 64

// gridRows is how many rows a bulk-filled narrowed mirror fits its grid
// to (core.NewFlatVecs).
const gridRows = 1024

// Table is the pivot table of the paper's table family (§3.1–§3.3): for
// every indexed object, its distances to l pivots, stored struct-of-
// arrays — one contiguous column per pivot slot — so Lemma 1 filtering
// scans columns sequentially. The families differ only in data:
//
//   - which pivots a row stores: LAESA and CPT share one pivot set
//     (column c is pivot c, rows are in the Z-order of their distances
//     and a zone map bounds every block of zoneRows rows); EPT/EPT* give
//     every row its own l pivots, so refs[c][row] names the pivot column
//     c holds for that row, and rows stay in insertion order with no
//     zones;
//   - where a candidate's object comes from: a flat coordinate mirror kept
//     in row lockstep when the dataset is uniform vectors (for L1 rows
//     a narrowed one, whose 8-bit grid codes reject most candidates and
//     the dataset's objects verify the rest), else the dataset's
//     objects, else (CPT, Omni-seq, DiskEPT*) a loader that reads it
//     from disk;
//   - where the rows live: in memory, or (Omni-seq, DiskEPT*) in a
//     store.RowFile, one page a block — such a paged table has no zones
//     or mirror, and a delete leaves a tombstone in place.
//
// Everything else — the row directory, the one append and the one remove,
// the one block loop of range and kNN queries, the memory accounting — is
// this type. Per-query buffers come from a scratch pool, so steady-state
// queries allocate nothing beyond the answer itself.
type Table struct {
	name     string // the owning family's error prefix
	ds       *core.Dataset
	pivotIDs []int // shared-pivot layout: the pivots' dataset ids
	// pivots is what a query measures itself against, through one batch
	// kernel call: the shared pivot values, or EPT's referenced-pivot
	// pool. Values are snapshotted, so deleting a pivot object from the
	// dataset does not invalidate the table.
	pivots   []core.Object
	ids      []int32        // row -> object id
	dir      []int32        // object id -> row, -1 when absent; spans the dataset's ids
	cols     [][]float64    // cols[c][row] = d(object ids[row], the row's c-th pivot)
	refs     [][]int32      // per-row layout: refs[c][row] indexes pivots; nil when shared
	zones    zoneMap        // shared layout: per-block and per-super-zone bounds of every column
	flat     *core.FlatVecs // coordinate mirror; nil off the flat path
	noMirror bool           // mirror never armed, or dropped for good (mixed objects)
	kern     core.PreKernel
	// attrs copies the dataset's attribute cells in row order, so a
	// compiled filter reads them at unit stride (scan.accepts). Kept on
	// the shared in-memory layout only, whose curve order scatters ids
	// (copiesAttrs); empty while the dataset has no attributes.
	attrs core.AttrRows
	// The per-row layout's referenced-pivot pool: every pivot some row
	// cites, densely numbered in first-reference order (the values are
	// pivots). poolIDs maps an index back to the pivot's dataset id, poolOf
	// is the inverse; nil on the shared layout.
	poolIDs []int32
	poolOf  map[int32]int32
	// file holds a paged table's rows: ids, cols and refs stay nil, dir
	// maps an id to its record, and a scan decodes one page, its block, at
	// a time. nil in memory.
	file *store.RowFile
	l    int    // paged: pivot slots per row
	live int    // paged: records not tombstoned
	rec  []byte // paged: the record Append and Remove write
	// load fetches a candidate's object from outside the dataset (CPT's
	// M-tree leaves, a RAF); nil verifies against the in-memory objects.
	load func(id int) (core.Object, error)
	// gather is how many candidates a range (gather[0]) and a kNN query
	// (gather[1]) gather before loading and verifying them, which for a
	// loader is the order of its disk reads: a kNN query admits each at
	// the fresh radius (1), a paged range loads them after each page (1,
	// DiskEPT*) or after the whole file (Omni-seq).
	gather  [2]int
	scratch core.ScratchPool
	// nexact counts the rows the scans of a narrowed mirror verified on
	// their objects (scan.nexact), added once per scan.
	nexact atomic.Int64
}

func newTable(name string, ds *core.Dataset, load func(id int) (core.Object, error)) *Table {
	t := &Table{name: name, ds: ds, load: load, gather: [2]int{verifyChunk, verifyChunk}}
	var hasKern bool
	t.kern, hasKern = core.PreKernelFor(ds.Space().Metric())
	t.noMirror = load != nil || !hasKern
	if load != nil {
		t.gather[1] = 1
	}
	return t
}

// Build computes the shared-pivot table of LAESA and CPT over all live
// objects through the counted space and stores its rows in curve order,
// the distance rows, the sort keys and the placement fanned out over
// workers goroutines (core.ParallelFor semantics; the table is identical
// for every value). A non-nil load keeps the objects out of memory: no
// coordinate mirror, every candidate fetched through it.
func Build(name string, ds *core.Dataset, pivots []int, workers int, load func(id int) (core.Object, error)) (*Table, error) {
	if len(pivots) == 0 {
		return nil, fmt.Errorf("%s: no pivots", name)
	}
	t := newTable(name, ds, load)
	t.pivotIDs = append([]int(nil), pivots...)
	for _, p := range pivots {
		v := ds.Object(p)
		if v == nil {
			return nil, fmt.Errorf("%s: pivot %d is not a live object", name, p)
		}
		t.pivots = append(t.pivots, v)
	}
	ids, cols := core.BuildDistCols(ds, ds.LiveIDs(), t.pivots, workers)
	if err := t.adopt(ids, cols, curveOrder(cols, workers), workers); err != nil {
		return nil, err
	}
	return t, nil
}

// newRefs returns an empty table in the per-row layout of EPT: l pivot
// slots per row, each naming its pivot by index into the pool pivotRef
// grows.
func newRefs(name string, ds *core.Dataset, l int) *Table {
	t := newTable(name, ds, nil)
	t.cols = make([][]float64, l)
	t.refs = make([][]int32, l)
	t.poolOf = make(map[int32]int32)
	return t
}

// adopt installs bulk shared-layout rows (build, snapshot load). Table
// row pos holds input row order[pos] — Build's curve order — or input
// row pos when order is nil: a snapshot loads in the order it was
// written.
//
// The directory is filled first and refuses an id outside the dataset's
// span or one that names two rows: a corrupt snapshot is rejected here
// rather than panicking or answering twice in its first query. The ids
// and columns (which adopt takes over) are then gathered into place one
// array at a time: writes in address order, reads at random — the cheap
// direction of a permutation. The mirror is filled by walking the
// directory in id order: the objects are read in the order their memory
// was laid out in, and each lands in its row. Both passes are fanned out
// over workers; the zones are derived from the placed columns.
func (t *Table) adopt(ids []int32, cols [][]float64, order []int32, workers int) error {
	n := len(ids)
	t.dir = make([]int32, t.ds.Len())
	for id := range t.dir {
		t.dir[id] = -1
	}
	for pos := range ids {
		i := pos
		if order != nil {
			i = int(order[pos])
		}
		id := ids[i]
		if id < 0 || int(id) >= len(t.dir) {
			return fmt.Errorf("%s: row %d holds object %d, outside the dataset's %d ids", t.name, i, id, len(t.dir))
		}
		if t.dir[id] >= 0 {
			return fmt.Errorf("%s: object %d is stored in two rows", t.name, id)
		}
		t.dir[id] = int32(pos)
	}
	t.ids, t.cols = ids, cols
	if order != nil {
		t.ids = make([]int32, n)
		core.ParallelFor(n, workers, func(start, end int) {
			for pos, i := range order[start:end] {
				t.ids[start+pos] = ids[i]
			}
		})
		// Each column is gathered into the memory the previous one
		// vacated, so the whole permutation costs one spare column.
		spare := make([]float64, n)
		for c, col := range cols {
			core.ParallelFor(n, workers, func(start, end int) {
				dst := spare[start:end]
				for pos, i := range order[start:end] {
					dst[pos] = col[i]
				}
			})
			cols[c], spare = spare, col
		}
	}
	if !t.noMirror && n > 0 {
		// A narrowed mirror's grid is fitted to gridRows rows spread over
		// the table: a coordinate outside it is clamped, which weakens the
		// filter on its row only.
		fill := make([]core.Object, 0, gridRows)
		for pos := 0; pos < n; pos += (n + gridRows - 1) / gridRows {
			fill = append(fill, t.ds.Object(int(t.ids[pos])))
		}
		t.flat = core.NewFlatVecs(t.ds.Space().Metric(), fill)
		var misfit atomic.Bool
		if t.flat != nil {
			t.flat.Resize(n)
			core.ParallelFor(len(t.dir), workers, func(start, end int) {
				for id, row := range t.dir[start:end] {
					if row >= 0 && !t.flat.Set(int(row), t.ds.Object(start+id)) {
						misfit.Store(true)
					}
				}
			})
		}
		if t.flat == nil || misfit.Load() {
			t.flat, t.noMirror = nil, true
		}
	}
	t.zones = buildZones(t.cols, workers)
	t.attrs.Reset(t.ds.AttrStore(), t.ids)
	return nil
}

// mirrorRow appends the object of table row `row` to the coordinate
// mirror, arming it on row 0 and dropping it permanently the moment any
// object does not fit (missing, wrong type or dimension) — queries then
// verify through Objects rather than through a mirror with a hole.
func (t *Table) mirrorRow(row int, o core.Object) {
	if t.noMirror {
		return
	}
	if t.flat == nil && row == 0 {
		t.flat = core.NewFlatVecs(t.ds.Space().Metric(), []core.Object{o})
	}
	if t.flat == nil || !t.flat.Append(o) {
		t.flat, t.noMirror = nil, true
	}
}

// FlatArmed reports whether the flat verification path is armed: the
// coordinate mirror exists — which implies a resolved kernel and, rows
// entering and leaving only through adopt, Append and Remove, one mirror
// row per table row.
func (t *Table) FlatArmed() bool { return t.flat != nil }

// Len returns the number of rows.
func (t *Table) Len() int {
	if t.file != nil {
		return t.live
	}
	return len(t.ids)
}

// PivotIDs returns the dataset ids of the shared pivots.
func (t *Table) PivotIDs() []int { return t.pivotIDs }

// Pivots returns the objects a query measures itself against.
func (t *Table) Pivots() []core.Object { return t.pivots }

// IDs returns the row -> object id column; nil on a paged table, whose
// rows are its file's records.
func (t *Table) IDs() []int32 { return t.ids }

// Cols returns the distance columns.
func (t *Table) Cols() [][]float64 { return t.cols }

// Refs returns the pivot-reference columns of the per-row layout.
func (t *Table) Refs() [][]int32 { return t.refs }

// Pushdown reports how far the table takes an accept test: past the
// zone map on the shared in-memory layout (LAESA, CPT), whose probe
// tests only the rows the zones and Lemma 1 leave; through every row on
// the per-row layout (EPT/EPT*), which has no zones, and on file
// (Omni-seq, DiskEPT*), whose scan reads every page.
func (t *Table) Pushdown() plan.Pushdown {
	if t.file == nil && t.refs == nil {
		return plan.PushdownPruned
	}
	return plan.PushdownScan
}

// Row returns the row holding object id, or -1.
func (t *Table) Row(id int) int {
	if id < 0 || id >= len(t.dir) {
		return -1
	}
	return int(t.dir[id])
}

// pivotRef returns the index rows refer to pivot p (a dataset id) by,
// admitting p with its value v to the per-row layout's pool on first
// reference.
func (t *Table) pivotRef(p int32, v core.Object) int32 {
	if i, ok := t.poolOf[p]; ok {
		return i
	}
	t.pivots = append(t.pivots, v)
	t.poolIDs = append(t.poolIDs, p)
	t.poolOf[p] = int32(len(t.pivots) - 1)
	return t.poolOf[p]
}

// PoolIDs returns the dataset ids of the per-row layout's pool, by index.
func (t *Table) PoolIDs() []int32 { return t.poolIDs }

// insertable returns the dataset object a new row for id would index, or
// the reason there cannot be one.
func (t *Table) insertable(id int) (core.Object, error) {
	if t.Row(id) >= 0 {
		return nil, fmt.Errorf("%s: duplicate insert of %d", t.name, id)
	}
	o := t.ds.Object(id)
	if o == nil {
		return nil, fmt.Errorf("%s: insert of deleted or out-of-range id %d", t.name, id)
	}
	return o, nil
}

// Append is the one way a row enters the table: directory, id, every
// column, the zones, the mirror and the attribute copy move together.
// The row goes last — into the last block, whose zone it widens, or into
// a new block it opens; on a paged table, into the file's next record.
// dists (and, on the per-row layout, refs) hold one entry per pivot
// slot; id must not be negative.
func (t *Table) Append(id int, o core.Object, refs []int32, dists []float64) error {
	for id >= len(t.dir) {
		t.dir = append(t.dir, -1)
	}
	if t.file != nil {
		row, err := t.file.Append(t.record(uint32(id), refs, dists))
		if err == nil {
			t.dir[id] = int32(row)
			t.live++
		}
		return err
	}
	row := len(t.ids)
	t.dir[id] = int32(row)
	t.ids = append(t.ids, int32(id))
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], dists[c])
		if t.refs != nil {
			t.refs[c] = append(t.refs[c], refs[c])
		}
	}
	t.zones.add(row, dists)
	t.mirrorRow(row, o)
	if t.copiesAttrs() {
		t.attrs.Append(t.ds.AttrStore(), id)
	}
	return nil
}

// Remove is the one way a row leaves: the last row is swapped into its
// place across every column, the mirror and the attribute copy, the
// zone of the block it lands in widens to cover it, and a block left
// empty at the end is dropped. Zones only ever widen here, so they stay conservative — and
// skipping by them exact — until the next build tightens them. The row is
// found through the directory — the paper's §6.3 deletion scans the table
// for it, which costs no distance and no page access, so its cost model
// is unchanged. A paged table overwrites the row's record with a
// tombstone instead, which costs the page's read and write.
func (t *Table) Remove(id int) error {
	row := t.Row(id)
	if row < 0 {
		return fmt.Errorf("%s: delete of unindexed object %d", t.name, id)
	}
	if t.file != nil {
		clear(t.rec)
		binary.LittleEndian.PutUint32(t.rec, tombstone)
		if err := t.file.Set(row, t.rec); err != nil {
			return err
		}
		t.dir[id] = -1
		t.live--
		return nil
	}
	last := len(t.ids) - 1
	lastID := t.ids[last]
	t.ids[row] = lastID
	t.ids = t.ids[:last]
	for c := range t.cols {
		t.cols[c][row] = t.cols[c][last]
		t.cols[c] = t.cols[c][:last]
		if t.refs != nil {
			t.refs[c][row] = t.refs[c][last]
			t.refs[c] = t.refs[c][:last]
		}
	}
	if t.flat != nil {
		t.flat.SwapDelete(row)
	}
	if t.copiesAttrs() {
		t.attrs.SwapDelete(row)
	}
	if row < last {
		for c := range t.zones.lo {
			t.zones.widen(c, row/zoneRows, t.cols[c][row])
		}
	}
	t.zones.truncate(last)
	t.dir[lastID] = int32(row)
	t.dir[id] = -1
	return nil
}

// copiesAttrs reports whether the table keeps the attribute copy: on
// the shared in-memory layout, whose curve order scatters ids, so the
// per-id test of a survivor is a scattered load. The per-row layout's
// rows lie in near-id order (insertion order, holes filled from the
// end), where the per-id test reads almost in sequence and 64-row words
// measured slower, and a paged table's rows are on disk.
func (t *Table) copiesAttrs() bool { return t.file == nil && t.refs == nil }

// RefreshAttrs copies object id's attribute cells into its row again,
// after Dataset.SetAttrs rewrote them (epoch.Live calls it).
func (t *Table) RefreshAttrs(id int) {
	if row := t.Row(id); row >= 0 && t.copiesAttrs() {
		t.attrs.Refresh(t.ds.AttrStore(), row, id)
	}
}

// Validate checks that the row state is in step, used by the test suite
// after every update and available to callers debugging a restored table:
//
//  1. the directory inverts ids, and every distance and reference column
//     has one entry per row;
//  2. every stored distance is the distance from the row's object to the
//     pivot the slot names;
//  3. the mirror's row holds the coordinates of the row's object (a
//     narrowed row: their grid codes, and the coding error);
//  4. the shared layout has one zone per block of zoneRows rows in every
//     column, and every row lies inside its block's zone (a NaN distance
//     inside an infinite one);
//  5. it has one super-zone per superBlocks blocks in every column, and
//     every super-zone covers the zone of each of its blocks;
//  6. on the shared layout, the attribute copy has one entry per row in
//     every column and, while
//     it is in step with the dataset's attribute store (a write that
//     bypassed RefreshAttrs puts it out of step, and queries then read
//     the store), every row's copied cells are the dataset's cells for
//     the row's id.
//
// Checks 2 and 3 skip a row whose object the dataset no longer holds.
// Distances are recomputed through the raw metric, so compdists do not
// move. A paged table has checks 1 and 2, over its records
// (validateFile).
func (t *Table) Validate() error {
	n := t.Len()
	indexed := 0
	for _, row := range t.dir {
		if row >= 0 {
			indexed++
		}
	}
	if indexed != n {
		return fmt.Errorf("%s: directory holds %d objects, table %d rows", t.name, indexed, n)
	}
	if t.file != nil {
		return t.validateFile()
	}
	for c := range t.cols {
		if len(t.cols[c]) != n || (t.refs != nil && len(t.refs[c]) != n) {
			return fmt.Errorf("%s: column %d is out of step with %d rows", t.name, c, n)
		}
	}
	if err := t.validateZones(); err != nil {
		return err
	}
	if t.flat != nil && t.flat.Rows() != n {
		return fmt.Errorf("%s: mirror holds %d rows, table %d", t.name, t.flat.Rows(), n)
	}
	if t.copiesAttrs() {
		if err := t.attrs.Check(t.ds.AttrStore(), t.ids); err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
	}
	sc := t.scratch.Get()
	defer t.scratch.Put(sc)
	qd := sc.GrowQD(len(t.pivots))
	metric := t.ds.Space().Metric()
	for row, id := range t.ids {
		if at := t.Row(int(id)); at != row {
			return fmt.Errorf("%s: directory says object %d is row %d, table says %d", t.name, id, at, row)
		}
		o := t.ds.Object(int(id))
		for c := range t.cols {
			p := c
			if t.refs != nil {
				p = int(t.refs[c][row])
			}
			qd[p] = t.cols[c][row]
			if d := qd[p]; o != nil && metric.Distance(o, t.pivots[p]) != d && !math.IsNaN(d) {
				return fmt.Errorf("%s: row %d slot %d stores %v, not the distance of object %d to its pivot", t.name, row, c, qd[p], id)
			}
		}
		for c := range t.zones.lo {
			d, b := t.cols[c][row], row/zoneRows
			lo, hi := t.zones.lo[c][b], t.zones.hi[c][b]
			if !(lo <= d && d <= hi) && !(math.IsNaN(d) && math.IsInf(lo, -1) && math.IsInf(hi, 1)) {
				return fmt.Errorf("%s: row %d column %d stores %v, outside its block's zone [%v, %v]", t.name, row, c, d, lo, hi)
			}
		}
		if t.flat != nil && o != nil {
			q64, q32, ok := t.flat.QueryCoords(o, sc)
			if !ok || !t.flat.Holds(row, q64, q32) {
				return fmt.Errorf("%s: mirror row %d does not hold object %d", t.name, row, id)
			}
		}
	}
	return nil
}

// validateZones is Validate's check of the zone map's shape: one zone per
// block and one super-zone per superBlocks blocks in every column, each
// super-zone covering the zones of its blocks.
func (t *Table) validateZones() error {
	n := len(t.ids)
	if t.refs == nil && (len(t.zones.lo) != len(t.cols) || len(t.zones.hi) != len(t.cols) ||
		len(t.zones.slo) != len(t.cols) || len(t.zones.shi) != len(t.cols)) {
		return fmt.Errorf("%s: zone map covers %d of %d columns", t.name, len(t.zones.lo), len(t.cols))
	}
	nb := (n + zoneRows - 1) / zoneRows
	for c, lo := range t.zones.lo {
		if len(lo) != nb || len(t.zones.hi[c]) != nb {
			return fmt.Errorf("%s: column %d has %d zones for %d blocks", t.name, c, len(lo), nb)
		}
		ns := (nb + superBlocks - 1) / superBlocks
		if len(t.zones.slo[c]) != ns || len(t.zones.shi[c]) != ns {
			return fmt.Errorf("%s: column %d has %d super-zones for %d blocks", t.name, c, len(t.zones.slo[c]), nb)
		}
		for b := range lo {
			s := b / superBlocks
			if slo, shi := t.zones.slo[c][s], t.zones.shi[c][s]; !(slo <= lo[b] && t.zones.hi[c][b] <= shi) {
				return fmt.Errorf("%s: column %d super-zone %d [%v, %v] does not cover block %d's zone [%v, %v]", t.name, c, s, slo, shi, b, lo[b], t.zones.hi[c][b])
			}
		}
	}
	return nil
}

// MemBytes reports the resident size of the table: ids, the directory (4
// bytes per id of the dataset's span — for a shard's mirror, its parent's
// span), distance columns, pivot-reference columns (why EPT is larger
// than LAESA in Table 4), the zone map (both levels), the coordinate
// mirror and the attribute copy.
func (t *Table) MemBytes() int64 {
	n := int64(len(t.ids))*4 + int64(len(t.dir))*4 + int64(len(t.pivotIDs))*8
	for c := range t.cols {
		n += int64(len(t.cols[c])) * 8
		if t.refs != nil {
			n += int64(len(t.refs[c])) * 4
		}
	}
	for c := range t.zones.lo {
		n += int64(len(t.zones.lo[c])+len(t.zones.hi[c])+len(t.zones.slo[c])+len(t.zones.shi[c])) * 8
	}
	if t.flat != nil {
		n += t.flat.MemBytes()
	}
	return n + t.attrs.MemBytes()
}

// scan is the state of one query's pass over the table. It lives on the
// query's stack; its buffers are the scratch's.
type scan struct {
	t      *Table
	sc     *core.Scratch
	q      core.Object
	accept core.Filter   // nil = every id
	h      *core.KNNHeap // kNN: the collector, whose radius tightens; nil for range
	ub     *core.KNNHeap // coded kNN: the kept rows' upper bounds (the scratch's Upper); else nil
	ceil   float64       // kNN: ub's k-th, +Inf until it holds k (and on a scan without ub)
	r      float64       // the radius: range's fixed one; kNN's k-th distance, or ceil if less (push)
	res    []uint64      // range: the answer's ids, in the scratch's Keys
	flat   bool          // verify through the mirror, with q widened into q64/q32
	narrow bool          // flat on a narrowed mirror: rows are verified on their objects (exact)
	coded  bool          // narrow, and q coded (qc, eq): rows are bounded by their codes first (bounded)
	q64    []float64
	q32    []float32
	qc     []uint8
	eq     float64
	chunk  int     // object path: candidates gathered before they are verified
	m      int     // object path: candidates gathered and not yet verified
	ndist  int     // flat path: distances computed, counted once at the end
	nexact int     // narrowed mirror: rows verified on their objects, counted once at the end
	qmax   float64 // largest |d(q, p)| over the pivots, for limit

	// words is accept when it is a compiled predicate the table's
	// attribute copy answers (wordsOf): accepts reads a bit of word, the
	// predicate's verdicts on the 64 rows from wordBase.
	words    *plan.Matcher
	word     uint64
	wordBase int
	// The rows block sweeps: the table's own columns, or on a paged
	// table the scratch's block columns its page is decoded into. refs is
	// nil on the shared layout.
	ids  []int32
	refs [][]int32
	cols [][]float64
}

// blocks returns the table's block count and the rows a block holds at
// most: zoneRows in memory, a page's records on file.
func (t *Table) blocks() (int, int) {
	if t.file != nil {
		return len(t.file.PageIDs()), t.file.PerPage()
	}
	return (len(t.ids) + zoneRows - 1) / zoneRows, zoneRows
}

// begin sizes the per-block buffers (the zone heap, one block's
// survivors, the chunk, a paged table's block columns) and computes the
// query's distance to every pivot (for EPT, every pooled pivot: the m·l
// term of its query cost) through the batch kernel.
func (t *Table) begin(sc *core.Scratch, q core.Object, accept core.Filter) scan {
	qd := sc.GrowQD(len(t.pivots))
	nb, rows := t.blocks()
	sc.Zones.Reserve(nb + (nb+superBlocks-1)/superBlocks)
	sc.GrowSur(rows)
	sc.GrowChunk(verifyChunk)
	t.ds.Space().DistanceMany(q, t.pivots, qd)
	s := scan{t: t, sc: sc, q: q, chunk: t.gather[0], ids: t.ids, refs: t.refs, cols: t.cols, wordBase: -1, ceil: math.Inf(1)}
	if !core.NoFilter(accept) {
		s.accept, s.words = accept, t.wordsOf(accept)
	}
	if t.file != nil {
		sc.GrowBlock(t.l, rows)
		s.ids, s.cols = sc.BlockIDs, sc.BlockCols
		if t.poolOf != nil {
			s.refs = sc.BlockRefs
		}
	}
	for _, d := range qd {
		if a := math.Abs(d); a > s.qmax {
			s.qmax = a
		}
	}
	if t.FlatArmed() {
		// A query whose type or dimension does not fit the mirror stays on
		// the object path, where the metric decides whether it is legal.
		s.q64, s.q32, s.flat = t.flat.QueryCoords(q, sc)
		if s.narrow = s.flat && t.flat.Narrowed(); s.narrow {
			s.qc, s.eq, s.coded = t.flat.Code(s.q64, sc)
		}
	}
	return s
}

// wordsOf returns accept when the table's attribute copy can answer it
// 64 rows at a time: a predicate compiled against the dataset's own
// attribute store, on a table that keeps a copy (copiesAttrs) in step
// with that store. Anything else — a bare core.Accept, a per-row or
// paged table, a predicate compiled against another dataset (a shard's
// parent), a copy a write bypassed — gets nil and is called per
// candidate.
func (t *Table) wordsOf(accept core.Filter) *plan.Matcher {
	m, ok := accept.(*plan.Matcher)
	if !ok || !t.copiesAttrs() || m.Store() != t.ds.AttrStore() || !t.attrs.InStep(m.Store()) {
		return nil
	}
	return m
}

// limit is the block bound above which no row of the block survives
// Lemma 1 at the current radius. A zone gap is the rounded lo − q while
// the row test is d > q + r with q + r rounded; the relative margin of
// 2⁻⁵⁰ on r and the largest |q| covers both roundings, so a block is cut
// only where the row test cuts every row. A negative range radius prunes
// every row with a finite distance and counts as 0 here; a NaN radius
// prunes nothing, and neither does the limit.
//
//metriclint:noalloc
func (s *scan) limit() float64 {
	r := max(s.r, 0)
	return r + (r+s.qmax)*0x1p-50
}

// sweep compacts into the scratch's Sur the rows of [base, end) that pass
// Lemma 1 at radius r — the layout's column sweep (shared pivots:
// unit-stride float64 columns; per-row pivots: the indexed sweep).
//
//metriclint:noalloc
func (s *scan) sweep(base, end int, r float64) []int32 {
	if s.refs != nil {
		return core.SurviveColumnsIndexed(s.sc.Sur, s.sc.QD, s.refs, s.cols, base, end, r)
	}
	return core.SurviveColumns(s.sc.Sur, s.sc.QD, s.cols, base, end, r)
}

// object fetches a candidate's object for the chunked path.
func (s *scan) object(id int) (core.Object, error) {
	if s.t.load != nil {
		return s.t.load(id)
	}
	return s.t.ds.Objects()[id], nil
}

// offer hands one verified candidate to the collector.
//
//metriclint:noalloc
func (s *scan) offer(id int, d float64) {
	if s.h != nil {
		s.push(id, d)
	} else if d <= s.r {
		//metriclint:ignore noalloc grows the scratch's Keys, which keeps the capacity for the next query
		s.res = append(s.res, uint64(id))
	}
}

// push offers a kNN candidate to the heap and brings the radius up to
// date: the lesser of the heap's k-th distance and ceil, as k rows lie
// within either, so no row beyond it is an answer. Keeping it in r
// makes the block loop's per-survivor read a load, not a call.
//
//metriclint:noalloc
func (s *scan) push(id int, d float64) {
	s.h.Push(id, d)
	s.r = min(s.h.Radius(), s.ceil)
}

// block is the staged pass over one admitted block, rows [base, end):
//
//  1. sweep the block's columns at the radius current now;
//  2. per survivor, in storage order: re-apply Lemma 1 at the fresh
//     radius (kNN only: a range radius never tightens, so its sweep was
//     already exact);
//  3. the optional accept test on what the recheck keeps — before
//     anything is spent on the row, so a rejected candidate costs no
//     distance and no disk read, and a row the recheck prunes costs no
//     predicate test (the radius cannot change between the two tests,
//     so the order moves no verified row). A compiled predicate over
//     the table's own attribute copy (accepts) is one bit of a 64-row
//     word it evaluates at unit stride; any other accept test is called
//     with the row's id;
//  4. verify: through the flat kernel at once, which stops reading the
//     row once its partial passes the radius's bound in pre-distance
//     space (exact distance for the rest), the next survivor's mirror
//     row prefetched first (core.FlatVecs.Prefetch); on a coded scan,
//     by the row's code bounds first (bounded); or by gathering it for
//     flush, which fetches the objects and verifies them through
//     DistanceMany;
//  5. collect: heap push, or radius compare.
//
// A coded kNN scan defers step 4's exact check of the rows its codes
// keep to the end of the block (settle), so that their upper bounds
// tighten the radius first.
//
// The sweep only pre-filters; step 3 makes the set of verified rows
// exactly what a row-at-a-time scan in the same row order verifies — a
// row survives the stale (larger) sweep radius whenever it survives the
// fresh one, and the recheck removes the rest. On the chunked path the
// recheck radius lags by the candidates still gathered, which only
// admits extra candidates the heap then rejects: answers stay identical,
// and chunk 1 (a loader's kNN) removes the lag altogether.
//
//metriclint:noalloc
func (s *scan) block(base, end int) error {
	t, sc := s.t, s.sc
	sur := s.sweep(base, end, s.r)
	for i, row := range sur {
		r := s.r
		if s.h != nil {
			// The layout's recheck, written out rather than behind a helper:
			// each inlines here, a helper holding both would not, and this
			// runs once per survivor.
			var pruned bool
			if s.refs != nil {
				pruned = core.PruneRowIndexedAt(sc.QD, s.refs, s.cols, int(row), r)
			} else {
				pruned = core.PruneRowAt(sc.QD, s.cols, int(row), r)
			}
			if pruned {
				continue
			}
		}
		// ids[row] is a scattered read, one likely cache miss per survivor:
		// each stage loads it only once it needs it.
		if s.accept != nil && !s.accepts(int(row)) {
			continue
		}
		if s.flat {
			// The next survivor's row loads while this one is verified.
			if i+1 < len(sur) {
				t.flat.Prefetch(int(sur[i+1]))
			}
			// The kernel stops reading the row once its partial passes the
			// bound; such a partial is a reject as the full pre-distance
			// would have been (see core.PreKernel).
			bound := t.kern.Bound(r)
			s.ndist++
			if s.coded {
				s.bounded(int(row), bound)
				continue
			}
			var pre float64
			if s.narrow {
				pre = s.exact(int(row), bound)
			} else {
				pre = t.flat.Pre(&t.kern, s.q64, s.q32, int(row), bound)
			}
			if !(pre > bound) {
				s.offer(int(s.ids[row]), t.kern.Finish(pre))
			}
			continue
		}
		if s.m == len(sc.IDs) {
			//metriclint:ignore noalloc grows the scratch's IDs past one chunk for a range that gathers the whole file; the capacity stays for the next query
			sc.IDs = append(sc.IDs, 0)
		}
		sc.IDs[s.m] = s.ids[row]
		if s.m++; s.m == s.chunk {
			if err := s.flush(); err != nil {
				return err
			}
		}
	}
	if s.ub != nil {
		s.settle()
	}
	return nil
}

// accepts is block's accept test of a row. With a compiled predicate
// the table's attribute copy answers, it reads the row's bit of the
// 64-row word holding it, evaluated once — survivors come in ascending
// row order within a block, and blocks start on a word; any other
// accept test is called with the row's id.
//
//metriclint:noalloc
func (s *scan) accepts(row int) bool {
	if s.words == nil {
		return s.accept.Match(int(s.ids[row]))
	}
	if base := row &^ 63; base != s.wordBase {
		s.wordBase = base
		s.word = s.words.Word(&s.t.attrs, base, min(base+64, len(s.ids)))
	}
	return s.word>>(row&63)&1 != 0
}

// exact is the pre-distance of a row of a narrowed mirror: Pre64 on the
// row's object — the dataset's float64 coordinates, the ones the row was
// coded from — at the stop bound, so every distance offered keeps its
// bits.
//
//metriclint:noalloc
func (s *scan) exact(row int, bound float64) float64 {
	s.nexact++
	return s.t.kern.Pre64(s.q64, s.t.ds.Objects()[s.ids[row]].(core.Vector), bound)
}

// bounded decides a row of a coded scan by its codes (core.FlatVecs.Bounds)
// at bound, the radius's: a row their lower bound puts above bound is
// rejected, as the exact check would have. A kNN query keeps the rest
// for settle, pushing each one's upper bound into the scan's second
// heap. A range query offers a row whose upper bound is within r with
// that bound — it decides as the distance would, for L1's Bound(r) is r
// and its distance the pre-distance — and verifies the rest at once.
// The booking is the caller's: one distance, whichever way the row goes.
//
//metriclint:noalloc
func (s *scan) bounded(row int, bound float64) {
	f := s.t.flat
	sd, e := f.Bounds(s.qc, s.eq, row)
	if f.Above(sd, e, bound) {
		return
	}
	d := f.Upper(sd, e)
	if s.h != nil {
		s.ub.Push(row, d)
		s.ceil = s.ub.Radius()
		s.r = min(s.r, s.ceil)
		//metriclint:ignore noalloc grows the scratch's Kept, which keeps the capacity for the next query
		s.sc.Kept = append(s.sc.Kept, core.CodeRow{Row: int32(row), SD: sd, E: e})
		return
	}
	if d > s.r {
		d = s.t.kern.Finish(s.exact(row, bound))
	}
	s.offer(int(s.ids[row]), d)
}

// settle verifies the rows a coded kNN scan's codes kept in one block,
// at the block's end. It drops those whose lower bound the radius now
// rejects, sorts the rest by ascending lower bound (SD − E; table row on
// ties) and verifies them in that order on their objects, re-testing
// each at the radius as the verified distances tighten it and
// prefetching the next row's object while one is verified. The heap
// keeps the k least distances under (distance, id) whatever order they
// come in, so the order moves no answer — only how many rows reach the
// exact check.
//
//metriclint:noalloc
func (s *scan) settle() {
	f, kept := s.t.flat, s.sc.Kept
	bound := s.t.kern.Bound(s.r)
	n := 0
	for _, c := range kept {
		if !f.Above(c.SD, c.E, bound) {
			kept[n] = c
			n++
		}
	}
	kept = kept[:n]
	slices.SortFunc(kept, byLower)
	objs := s.t.ds.Objects()
	for i, c := range kept {
		if i+1 < len(kept) {
			core.PrefetchVector(objs[s.ids[kept[i+1].Row]].(core.Vector))
		}
		bound := s.t.kern.Bound(s.r)
		if f.Above(c.SD, c.E, bound) {
			continue
		}
		if pre := s.exact(int(c.Row), bound); !(pre > bound) {
			s.push(int(s.ids[c.Row]), s.t.kern.Finish(pre))
		}
	}
	s.sc.Kept = kept[:0]
}

// byLower orders kept rows by ascending lower bound, SD − E, and table
// row on ties.
//
//metriclint:noalloc
func byLower(a, b core.CodeRow) int {
	if c := cmp.Compare(a.SD-a.E, b.SD-b.E); c != 0 {
		return c
	}
	return cmp.Compare(a.Row, b.Row)
}

// flush verifies the gathered candidates, verifyChunk at a time: it
// fetches their objects — a loader's disk reads happen here, in storage
// order — then verifies them through one DistanceMany and offers them.
//
//metriclint:noalloc
func (s *scan) flush() error {
	sc := s.sc
	for lo := 0; lo < s.m; lo += verifyChunk {
		ids := sc.IDs[lo:min(s.m, lo+verifyChunk)]
		objs, out := sc.Objs[:len(ids)], sc.Out[:len(ids)]
		for j, id := range ids {
			o, err := s.object(int(id))
			if err != nil {
				return err
			}
			objs[j] = o
		}
		s.t.ds.Space().DistanceMany(s.q, objs, out)
		for j, id := range ids {
			s.offer(int(id), out[j])
		}
	}
	s.m = 0
	return nil
}

// finish verifies what is still gathered and books the flat path's
// distances: one CountDistances covers the whole scan.
//
//metriclint:noalloc
func (s *scan) finish() error {
	err := s.flush()
	s.t.ds.Space().CountDistances(s.ndist)
	if s.nexact > 0 {
		s.t.nexact.Add(int64(s.nexact))
	}
	return err
}

// run is the one block loop of every query — range and kNN, filtered or
// not, on either layout. It visits blocks best-first by their zone bound
// (visitor: super-zones first, then the blocks of those reached), each
// popped block running block, until the least bound left exceeds the
// limit at the radius current then. Range queries thus skip every block a
// zone proves empty (their survivors and compdists are a full sweep's);
// kNN queries start in the block nearest the query in pivot space, sweep
// it at +Inf, and stop as soon as no remaining block can hold a row inside
// the tightened radius. The per-row layout and a paged table have no
// zones: all their bounds are 0, and their blocks go in storage order.
//
//metriclint:noalloc
func (s *scan) run() error {
	nb, _ := s.t.blocks()
	v := s.t.zones.visit(&s.sc.Zones, s.sc.QD, nb, s.limit())
	for b := v.next(s.limit()); b >= 0; b = v.next(s.limit()) {
		base, end := b*zoneRows, min((b+1)*zoneRows, len(s.ids))
		var err error
		if s.t.file != nil {
			base = 0
			end, err = s.t.decodePage(b, s.ids, s.refs, s.cols)
		}
		if err == nil {
			err = s.block(base, end)
		}
		if err != nil {
			return err
		}
	}
	return s.finish()
}

// radixMin and answerDigit size the ordering of a range answer: from
// radixMin ids on, an LSD radix sort of answerDigit bits a pass over the
// scratch's buffers; below, a comparison sort in place. See
// docs/KERNELS.md "Zone maps and curve order".
const (
	radixMin    = 64
	answerDigit = 11
)

// Range answers MRQ(q, r) over the accepted ids (nil accept: all of
// them): every block a zone does not rule out is swept at the fixed
// radius, then its survivors are verified. The ids are collected in the
// scratch, in table order, and ordered into the answer — the query's one
// allocation.
func (t *Table) Range(q core.Object, r float64, accept core.Filter) ([]int, error) {
	sc := t.scratch.Get()
	s := t.begin(sc, q, accept)
	s.r, s.res = r, sc.Keys[:0]
	err := s.run()
	sc.Keys = s.res[:0]
	var res []int
	if err == nil && len(s.res) > 0 {
		res = t.answer(sc, s.res)
	}
	t.scratch.Put(sc)
	return res, err
}

// answer returns ids ascending, in one slice of their length.
func (t *Table) answer(sc *core.Scratch, ids []uint64) []int {
	if len(ids) >= radixMin {
		// Every id lies below the directory's span.
		buf, digits := sc.GrowRadix(len(ids), 1<<answerDigit)
		ids = radixSort(ids, buf, digits, 0, bits.Len(uint(len(t.dir)-1)), answerDigit)
	}
	res := make([]int, len(ids))
	for i, id := range ids {
		res[i] = int(id)
	}
	if len(ids) < radixMin {
		slices.Sort(res)
	}
	return res
}

// KNN answers MkNNQ(q, k) over the accepted ids (nil accept: all of
// them): radius starts at infinity and is tightened by each verified
// object (§2.1, second method), visiting blocks best-first by their zone
// bound — the order the tree families traverse nodes in, which tightens
// the radius sooner, applied to the table's blocks.
func (t *Table) KNN(q core.Object, k int, accept core.Filter) ([]core.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	sc := t.scratch.Get()
	h := sc.Heap(k)
	err := t.scanKNN(sc, h, q, accept)
	var res []core.Neighbor
	if err == nil {
		res = h.Result()
	}
	t.scratch.Put(sc)
	return res, err
}

// ScanKNN is KNN up to the answer assembly: it offers every verified
// candidate to h and allocates nothing once the scratch pool is warm
// (the zero-allocation witnesses measure exactly this).
func (t *Table) ScanKNN(h *core.KNNHeap, q core.Object, accept core.Filter) error {
	sc := t.scratch.Get()
	err := t.scanKNN(sc, h, q, accept)
	t.scratch.Put(sc)
	return err
}

// scanKNN runs the kNN scan: the radius stays +Inf until k accepted
// candidates have been verified, so the first block is swept whole.
func (t *Table) scanKNN(sc *core.Scratch, h *core.KNNHeap, q core.Object, accept core.Filter) error {
	s := t.begin(sc, q, accept)
	s.h, s.r, s.chunk = h, h.Radius(), t.gather[1]
	if s.coded {
		s.ub = &sc.Upper
		s.ub.Reset(h.K())
	}
	return s.run()
}

// EncodeBlock writes the shared-layout table block LAESA and CPT store:
// pivots (ids and snapshotted values), the row ids, and the distance
// table as one flat column-major block. The row directory and the
// coordinate mirror are derivable and not stored.
func (t *Table) EncodeBlock(w *store.Writer) {
	w.Pivots(t.pivotIDs, t.pivots)
	w.Int32s(t.ids)
	flat := make([]float64, 0, len(t.ids)*len(t.cols))
	for _, col := range t.cols {
		flat = append(flat, col...)
	}
	w.Floats(flat)
}

// DecodeBlock reads the block EncodeBlock writes. rowMajor selects the
// version-1 float order (dists[row*l+i]), which loads through a
// transpose. Rows load in the order they were written — curve order for
// a table Build made; an older snapshot keeps its order, and its zones
// are exact but loose until the index is rebuilt. Row ids outside the
// dataset or stored twice are rejected.
func DecodeBlock(name string, ds *core.Dataset, r *store.Reader, rowMajor bool, load func(id int) (core.Object, error)) (*Table, error) {
	t := newTable(name, ds, load)
	t.pivotIDs, t.pivots = r.Pivots(ds.Sample())
	ids := r.Int32s()
	dists := r.Floats()
	if err := r.Err(); err != nil {
		return nil, err
	}
	l := len(t.pivotIDs)
	if len(dists) != len(ids)*l {
		return nil, fmt.Errorf("%s: %d distances for %d rows × %d pivots", name, len(dists), len(ids), l)
	}
	if err := t.adopt(ids, distColumns(dists, len(ids), l, rowMajor), nil, -1); err != nil {
		return nil, err
	}
	return t, nil
}

// distColumns splits a flat distance block into per-pivot columns,
// transposing when the block is the row-major layout of version-1
// payloads. Column-major blocks are split in place: each column is a
// capacity-capped view, so an append moves it out instead of writing
// into the next one.
func distColumns(dists []float64, rows, l int, rowMajor bool) [][]float64 {
	cols := make([][]float64, l)
	for i := range cols {
		if !rowMajor {
			cols[i] = dists[i*rows : (i+1)*rows : (i+1)*rows]
			continue
		}
		cols[i] = make([]float64, rows)
		for row := 0; row < rows; row++ {
			cols[i][row] = dists[row*l+i]
		}
	}
	return cols
}
