// Package table implements the pivot-based table indexes of paper §3:
// AESA (the O(n²) theoretical baseline), LAESA (the linear pivot table),
// and Table, the one pivot table — row state, update path, staged scan
// and codec — that LAESA, EPT/EPT* (internal/ept) and CPT (internal/cpt)
// all share.
package table

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"metricindex/internal/core"
	"metricindex/internal/persist"
)

// verifyChunk is the candidate batch size of the chunked DistanceMany
// verification path.
const verifyChunk = 64

// Table is the pivot table of the paper's table family (§3.1–§3.3): for
// every indexed object, its distances to l pivots, stored struct-of-
// arrays — one contiguous column per pivot slot — so Lemma 1 filtering
// scans columns sequentially. The families differ only in data:
//
//   - which pivots a row stores: LAESA and CPT share one pivot set
//     (column c is pivot c, a quantized shadow of column 0 pre-filters
//     the sweep, rows are in the Z-order of their distances and a zone
//     map bounds every block of zoneRows rows); EPT/EPT* give every row
//     its own l pivots, so refs[c][row] names the pivot column c holds
//     for that row, and rows stay in insertion order with no zones;
//   - where a candidate's object comes from: a flat coordinate mirror kept
//     in row lockstep when the dataset is uniform vectors, else the
//     dataset's objects, else (CPT) a loader that reads it from disk.
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
	qcol     *core.QuantCol // shared layout: quantized shadow of cols[0]
	flat     *core.FlatVecs // coordinate mirror; nil off the flat path
	noMirror bool           // mirror never armed, or dropped for good (mixed objects)
	kern     core.PreKernel
	// load fetches a candidate's object from outside the dataset (CPT's
	// M-tree leaves); nil verifies against the in-memory objects.
	load    func(id int) (core.Object, error)
	scratch core.ScratchPool
}

func newTable(name string, ds *core.Dataset, load func(id int) (core.Object, error)) *Table {
	t := &Table{name: name, ds: ds, load: load}
	var hasKern bool
	t.kern, hasKern = core.PreKernelFor(ds.Space().Metric())
	t.noMirror = load != nil || !hasKern
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

// NewRefs returns an empty table in the per-row layout of EPT: l pivot
// slots per row, each naming its pivot by index into the pool AddPivot
// grows.
func NewRefs(name string, ds *core.Dataset, l int) *Table {
	t := newTable(name, ds, nil)
	t.cols = make([][]float64, l)
	t.refs = make([][]int32, l)
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
// over workers; the zones and the shadow are derived from the placed
// columns.
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
		t.flat = core.NewFlatVecs(t.ds.Object(int(ids[0])))
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
	t.qcol = core.NewQuantCol(t.cols[0])
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
		t.flat = core.NewFlatVecs(o)
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
func (t *Table) Len() int { return len(t.ids) }

// PivotIDs returns the dataset ids of the shared pivots.
func (t *Table) PivotIDs() []int { return t.pivotIDs }

// Pivots returns the objects a query measures itself against.
func (t *Table) Pivots() []core.Object { return t.pivots }

// IDs returns the row -> object id column.
func (t *Table) IDs() []int32 { return t.ids }

// Cols returns the distance columns.
func (t *Table) Cols() [][]float64 { return t.cols }

// Refs returns the pivot-reference columns of the per-row layout.
func (t *Table) Refs() [][]int32 { return t.refs }

// Row returns the row holding object id, or -1.
func (t *Table) Row(id int) int {
	if id < 0 || id >= len(t.dir) {
		return -1
	}
	return int(t.dir[id])
}

// AddPivot admits one more object to the per-row layout's pivot pool and
// returns the index rows refer to it by.
func (t *Table) AddPivot(v core.Object) int32 {
	t.pivots = append(t.pivots, v)
	return int32(len(t.pivots) - 1)
}

// Insertable returns the dataset object a new row for id would index, or
// the reason there cannot be one.
func (t *Table) Insertable(id int) (core.Object, error) {
	if t.Row(id) >= 0 {
		return nil, fmt.Errorf("%s: duplicate insert of %d", t.name, id)
	}
	o := t.ds.Object(id)
	if o == nil {
		return nil, fmt.Errorf("%s: insert of deleted or out-of-range id %d", t.name, id)
	}
	return o, nil
}

// Insert adds a shared-layout row for the dataset object id, computing
// its pivot distances through the batch kernel (one DistanceMany).
func (t *Table) Insert(id int) error {
	o, err := t.Insertable(id)
	if err != nil {
		return err
	}
	sc := t.scratch.Get()
	qd := sc.GrowQD(len(t.pivots))
	t.ds.Space().DistanceMany(o, t.pivots, qd)
	t.Append(id, o, nil, qd)
	t.scratch.Put(sc)
	return nil
}

// Append is the one way a row enters the table: directory, id, every
// column, the zones, the shadow and the mirror move together. The row
// goes last — into the last block, whose zone it widens, or into a new
// block it opens. dists (and, on the per-row layout, refs) hold one
// entry per pivot slot; id must not be negative.
func (t *Table) Append(id int, o core.Object, refs []int32, dists []float64) {
	row := len(t.ids)
	for id >= len(t.dir) {
		t.dir = append(t.dir, -1)
	}
	t.dir[id] = int32(row)
	t.ids = append(t.ids, int32(id))
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], dists[c])
		if t.refs != nil {
			t.refs[c] = append(t.refs[c], refs[c])
		}
	}
	t.zones.add(row, dists)
	if t.qcol != nil {
		t.qcol.Append(dists[0])
	}
	t.mirrorRow(row, o)
}

// Remove is the one way a row leaves: the last row is swapped into its
// place across every column, the shadow and the mirror, the zone of the
// block it lands in widens to cover it, and a block left empty at the end
// is dropped. Zones only ever widen here, so they stay conservative — and
// skipping by them exact — until the next build tightens them. The row is
// found through the directory — the paper's §6.3 deletion scans the table
// for it, which costs no distance and no page access, so its cost model
// is unchanged.
func (t *Table) Remove(id int) error {
	row := t.Row(id)
	if row < 0 {
		return fmt.Errorf("%s: delete of unindexed object %d", t.name, id)
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
	if t.qcol != nil {
		t.qcol.SwapDelete(row)
	}
	if t.flat != nil {
		t.flat.SwapDelete(row)
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

// Validate checks that the row state is in step, used by the test suite
// after every update and available to callers debugging a restored table:
//
//  1. the directory inverts ids, and every distance and reference column
//     has one entry per row;
//  2. every stored distance is the distance from the row's object to the
//     pivot the slot names;
//  3. the shadow's lane for a row is its quantized first-column distance —
//     swept at radius 0 around the row's own distances, the row survives;
//  4. the mirror's row holds the coordinates of the row's object;
//  5. the shared layout has one zone per block of zoneRows rows in every
//     column, and every row lies inside its block's zone (a NaN distance
//     inside an infinite one);
//  6. it has one super-zone per superBlocks blocks in every column, and
//     every super-zone covers the zone of each of its blocks.
//
// Checks 2 and 4 skip a row whose object the dataset no longer holds.
// Distances are recomputed through the raw metric, so compdists do not
// move.
func (t *Table) Validate() error {
	n := len(t.ids)
	indexed := 0
	for _, row := range t.dir {
		if row >= 0 {
			indexed++
		}
	}
	if indexed != n {
		return fmt.Errorf("%s: directory holds %d objects, table %d rows", t.name, indexed, n)
	}
	for c := range t.cols {
		if len(t.cols[c]) != n || (t.refs != nil && len(t.refs[c]) != n) {
			return fmt.Errorf("%s: column %d is out of step with %d rows", t.name, c, n)
		}
	}
	if err := t.validateZones(); err != nil {
		return err
	}
	if t.qcol.OK() && t.qcol.Len() != n {
		return fmt.Errorf("%s: shadow holds %d rows, table %d", t.name, t.qcol.Len(), n)
	}
	if t.flat != nil && t.flat.Rows() != n {
		return fmt.Errorf("%s: mirror holds %d rows, table %d", t.name, t.flat.Rows(), n)
	}
	sc := t.scratch.Get()
	defer t.scratch.Put(sc)
	qd := sc.GrowQD(len(t.pivots))
	sc.GrowSur(1)
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
		if len(t.sweep(sc, row, row+1, 0)) != 1 {
			return fmt.Errorf("%s: the shadow prunes row %d at its own distances", t.name, row)
		}
		if t.flat != nil && o != nil {
			q64, q32, ok := t.flat.QueryCoords(o, sc)
			if !ok || t.kern.Finish(t.flat.Pre(&t.kern, q64, q32, row)) != 0 {
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
// than LAESA in Table 4), the zone map (both levels), the quantized shadow
// and the coordinate mirror.
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
	if t.qcol != nil {
		n += t.qcol.MemBytes()
	}
	if t.flat != nil {
		n += t.flat.MemBytes()
	}
	return n
}

// sweep compacts into sc.Sur the rows of [base, end) that pass Lemma 1 at
// radius r — the layout's column sweep (shared pivots: a SWAR pass over
// the quantized shadow, then exact unit-stride float64 columns; per-row
// pivots: the indexed sweep).
//
//metriclint:noalloc
func (t *Table) sweep(sc *core.Scratch, base, end int, r float64) []int32 {
	if t.refs != nil {
		return core.SurviveColumnsIndexed(sc.Sur, sc.QD, t.refs, t.cols, base, end, r)
	}
	return core.SurviveColumnsQuant(sc.Sur, sc.QD, t.qcol, t.cols, base, end, r)
}

// scan is the state of one query's pass over the table. It lives on the
// query's stack; its buffers are the scratch's.
type scan struct {
	t      *Table
	sc     *core.Scratch
	q      core.Object
	accept core.Accept   // nil = every id
	h      *core.KNNHeap // kNN: the collector, whose radius tightens; nil for range
	r      float64       // range: the fixed radius
	res    []uint64      // range: the answer's ids, in the scratch's Keys
	flat   bool          // verify through the mirror, with q widened into q64/q32
	q64    []float64
	q32    []float32
	chunk  int     // object path: candidates gathered per DistanceMany
	m      int     // object path: candidates gathered and not yet verified
	ndist  int     // flat path: distances computed, counted once at the end
	qmax   float64 // largest |d(q, p)| over the pivots, for limit
}

// begin sizes the per-block buffers (the zone heap, one block's
// survivors, the chunk) and computes the query's distance to every pivot
// (for EPT, every pooled pivot: the m·l term of its query cost) through
// the batch kernel.
func (t *Table) begin(sc *core.Scratch, q core.Object, accept core.Accept) scan {
	qd := sc.GrowQD(len(t.pivots))
	nb := (len(t.ids) + zoneRows - 1) / zoneRows
	sc.Zones.Reserve(nb + (nb+superBlocks-1)/superBlocks)
	sc.GrowSur(zoneRows)
	sc.GrowChunk(verifyChunk)
	t.ds.Space().DistanceMany(q, t.pivots, qd)
	s := scan{t: t, sc: sc, q: q, accept: accept, chunk: verifyChunk}
	for _, d := range qd {
		if a := math.Abs(d); a > s.qmax {
			s.qmax = a
		}
	}
	if t.FlatArmed() {
		// A query whose type or dimension does not fit the mirror stays on
		// the object path, where the metric decides whether it is legal.
		s.q64, s.q32, s.flat = t.flat.QueryCoords(q, sc)
	}
	return s
}

//metriclint:noalloc
func (s *scan) radius() float64 {
	if s.h != nil {
		return s.h.Radius()
	}
	return s.r
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
	r := max(s.radius(), 0)
	return r + (r+s.qmax)*0x1p-50
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
		s.h.Push(id, d)
	} else if d <= s.r {
		//metriclint:ignore noalloc grows the scratch's Keys, which keeps the capacity for the next query
		s.res = append(s.res, uint64(id))
	}
}

// block is the staged pass over one admitted block, rows [base, end):
//
//  1. sweep the block's columns at the radius current now;
//  2. per survivor, in storage order: the optional accept test — before
//     anything is spent on the row, so a rejected candidate costs no
//     distance and no disk read;
//  3. re-apply Lemma 1 at the fresh radius (kNN only: a range radius
//     never tightens, so its sweep was already exact);
//  4. verify: through the flat kernel at once (squared-space reject for
//     clear misses, exact distance for the rest), or by fetching the
//     object and gathering it into the DistanceMany chunk;
//  5. collect: heap push, or radius compare.
//
// The sweep only pre-filters; step 3 makes the set of verified rows
// exactly what a row-at-a-time scan in the same row order verifies — a
// row survives the stale (larger) sweep radius whenever it survives the
// fresh one, and the recheck removes the rest. On the chunked path the
// recheck radius lags by the candidates still gathered, which only
// admits extra candidates the heap then rejects: answers stay identical,
// and chunk 1 (CPT's kNN) removes the lag altogether.
//
//metriclint:noalloc
func (s *scan) block(base, end int) error {
	t, sc := s.t, s.sc
	for _, row := range t.sweep(sc, base, end, s.radius()) {
		// ids[row] is a scattered read, one likely cache miss per survivor:
		// each stage loads it only once it needs it.
		if s.accept != nil && !s.accept(int(t.ids[row])) {
			continue
		}
		r := s.radius()
		if s.h != nil {
			// The layout's recheck, written out rather than behind a helper:
			// each inlines here, a helper holding both would not, and this
			// runs once per survivor.
			var pruned bool
			if t.refs != nil {
				pruned = core.PruneRowIndexedAt(sc.QD, t.refs, t.cols, int(row), r)
			} else {
				pruned = core.PruneRowAt(sc.QD, t.cols, int(row), r)
			}
			if pruned {
				continue
			}
		}
		if s.flat {
			pre := t.flat.Pre(&t.kern, s.q64, s.q32, int(row))
			s.ndist++
			if !t.kern.Exceeds(pre, r) {
				s.offer(int(t.ids[row]), t.kern.Finish(pre))
			}
			continue
		}
		id := t.ids[row]
		o, err := s.object(int(id))
		if err != nil {
			return err
		}
		sc.IDs[s.m], sc.Objs[s.m] = id, o
		if s.m++; s.m == s.chunk {
			s.flush()
		}
	}
	return nil
}

// flush verifies the gathered chunk through one DistanceMany and offers
// every candidate in storage order.
//
//metriclint:noalloc
func (s *scan) flush() {
	sc := s.sc
	s.t.ds.Space().DistanceMany(s.q, sc.Objs[:s.m], sc.Out[:s.m])
	for j := 0; j < s.m; j++ {
		s.offer(int(sc.IDs[j]), sc.Out[j])
	}
	s.m = 0
}

// finish verifies what is still gathered and books the flat path's
// distances: one CountDistances covers the whole scan.
//
//metriclint:noalloc
func (s *scan) finish() {
	s.flush()
	s.t.ds.Space().CountDistances(s.ndist)
}

// run is the one block loop of every query — range and kNN, filtered or
// not, on either layout. It visits blocks best-first by their zone bound
// (visitor: super-zones first, then the blocks of those reached), each
// popped block running block, until the least bound left exceeds the
// limit at the radius current then. Range queries thus skip every block a
// zone proves empty (their survivors and compdists are a full sweep's);
// kNN queries start in the block nearest the query in pivot space, sweep
// it at +Inf, and stop as soon as no remaining block can hold a row inside
// the tightened radius. The per-row layout has no zones: all its bounds
// are 0, and its blocks go in storage order.
//
//metriclint:noalloc
func (s *scan) run() error {
	n := len(s.t.ids)
	v := s.t.zones.visit(&s.sc.Zones, s.sc.QD, (n+zoneRows-1)/zoneRows, s.limit())
	for b := v.next(s.limit()); b >= 0; b = v.next(s.limit()) {
		if err := s.block(b*zoneRows, min((b+1)*zoneRows, n)); err != nil {
			return err
		}
	}
	s.finish()
	return nil
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
func (t *Table) Range(q core.Object, r float64, accept core.Accept) ([]int, error) {
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
func (t *Table) KNN(q core.Object, k int, accept core.Accept) ([]core.Neighbor, error) {
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
func (t *Table) ScanKNN(h *core.KNNHeap, q core.Object, accept core.Accept) error {
	sc := t.scratch.Get()
	err := t.scanKNN(sc, h, q, accept)
	t.scratch.Put(sc)
	return err
}

// scanKNN runs the kNN scan: the radius stays +Inf until k accepted
// candidates have been verified, so the first block is swept whole.
func (t *Table) scanKNN(sc *core.Scratch, h *core.KNNHeap, q core.Object, accept core.Accept) error {
	s := t.begin(sc, q, accept)
	s.h = h
	if t.load != nil {
		// Every admission is a disk read, so it is decided at the fresh
		// radius: no candidate waits in a chunk while the radius tightens.
		s.chunk = 1
	}
	return s.run()
}

// EncodeBlock writes the shared-layout table block LAESA and CPT store:
// pivots (ids and snapshotted values), the row ids, and the distance
// table as one flat column-major block. The row directory, the shadow
// and the coordinate mirror are derivable and not stored.
func (t *Table) EncodeBlock(w *persist.Writer) {
	w.Ints(t.pivotIDs)
	w.Objects(t.pivots)
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
func DecodeBlock(name string, ds *core.Dataset, r *persist.Reader, rowMajor bool, load func(id int) (core.Object, error)) (*Table, error) {
	t := newTable(name, ds, load)
	t.pivotIDs = r.Ints()
	t.pivots = r.Objects()
	ids := r.Int32s()
	dists := r.Floats()
	if err := r.Err(); err != nil {
		return nil, err
	}
	l := len(t.pivotIDs)
	if len(t.pivots) != l || l == 0 {
		return nil, fmt.Errorf("%s: %d pivot values for %d pivot ids", name, len(t.pivots), l)
	}
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
