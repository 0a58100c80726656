// Package table implements the pivot-based table indexes of paper §3:
// AESA (the O(n²) theoretical baseline), LAESA (the linear pivot table),
// and Table, the one pivot table — row state, update path, staged scan
// and codec — that LAESA, EPT/EPT* (internal/ept) and CPT (internal/cpt)
// all share.
package table

import (
	"fmt"
	"sort"

	"metricindex/internal/core"
	"metricindex/internal/persist"
)

// verifyChunk is the candidate batch size of the chunked DistanceMany
// verification path.
const verifyChunk = 64

// knnBlockMin and knnBlock bound the row-block sizes of the staged kNN
// scan: each block is column-swept at the radius current when the block
// starts, so the effective pruning radius tightens block by block while
// the block's columns stay cache-resident for the per-survivor recheck.
// Blocks start small — the first sweeps run at the loose just-seeded
// radius and would filter almost nothing over a long run — and double
// to knnBlock once the radius has contracted.
const (
	knnBlockMin = 128
	knnBlock    = 1024
)

// Table is the pivot table of the paper's table family (§3.1–§3.3): for
// every indexed object, its distances to l pivots, stored struct-of-
// arrays — one contiguous column per pivot slot — so Lemma 1 filtering
// scans columns sequentially. The families differ only in data:
//
//   - which pivots a row stores: LAESA and CPT share one pivot set
//     (column c is pivot c, and a quantized shadow of column 0 pre-filters
//     the sweep); EPT/EPT* give every row its own l pivots, so refs[c][row]
//     names the pivot column c holds for that row;
//   - where a candidate's object comes from: a flat coordinate mirror kept
//     in row lockstep when the dataset is uniform vectors, else the
//     dataset's objects, else (CPT) a loader that reads it from disk.
//
// Everything else — the row directory, the one append and the one remove,
// the staged range/kNN scan, the memory accounting — is this type.
// Per-query buffers come from a scratch pool, so steady-state queries
// allocate nothing beyond the answer itself.
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
	rowOf    map[int]int    // object id -> row
	cols     [][]float64    // cols[c][row] = d(object ids[row], the row's c-th pivot)
	refs     [][]int32      // per-row layout: refs[c][row] indexes pivots; nil when shared
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
	t := &Table{name: name, ds: ds, rowOf: make(map[int]int), load: load}
	var hasKern bool
	t.kern, hasKern = core.PreKernelFor(ds.Space().Metric())
	t.noMirror = load != nil || !hasKern
	return t
}

// Build computes the shared-pivot table of LAESA and CPT over all live
// objects through the counted space, the rows fanned out over workers
// goroutines (core.ParallelFor semantics; the table is identical for
// every value). A non-nil load keeps the objects out of memory: no
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
	t.adopt(core.BuildDistCols(ds, ds.LiveIDs(), t.pivots, workers))
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

// adopt installs bulk-built shared-layout rows (build, snapshot load):
// the row directory and the mirror in one pass over the rows, then the
// shadow.
func (t *Table) adopt(ids []int32, cols [][]float64) {
	t.ids, t.cols = ids, cols
	t.rowOf = make(map[int]int, len(ids))
	for row, id := range ids {
		t.rowOf[int(id)] = row
		t.mirrorRow(row, t.ds.Object(int(id)))
	}
	t.qcol = core.NewQuantCol(cols[0])
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
	if row, ok := t.rowOf[id]; ok {
		return row
	}
	return -1
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
	if _, dup := t.rowOf[id]; dup {
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
// column, the shadow and the mirror move together. dists (and, on the
// per-row layout, refs) hold one entry per pivot slot.
func (t *Table) Append(id int, o core.Object, refs []int32, dists []float64) {
	row := len(t.ids)
	t.rowOf[id] = row
	t.ids = append(t.ids, int32(id))
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], dists[c])
		if t.refs != nil {
			t.refs[c] = append(t.refs[c], refs[c])
		}
	}
	if t.qcol != nil {
		t.qcol.Append(dists[0])
	}
	t.mirrorRow(row, o)
}

// Remove is the one way a row leaves: the last row is swapped into its
// place across every column, the shadow and the mirror. The row is found
// through the directory — the paper's §6.3 deletion scans the table for
// it, which costs no distance and no page access, so its cost model is
// unchanged.
func (t *Table) Remove(id int) error {
	row, ok := t.rowOf[id]
	if !ok {
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
	t.rowOf[int(lastID)] = row
	delete(t.rowOf, id)
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
//  4. the mirror's row holds the coordinates of the row's object.
//
// Checks 2 and 4 skip a row whose object the dataset no longer holds.
// Distances are recomputed through the raw metric, so compdists do not
// move.
func (t *Table) Validate() error {
	n := len(t.ids)
	if len(t.rowOf) != n {
		return fmt.Errorf("%s: directory holds %d objects, table %d rows", t.name, len(t.rowOf), n)
	}
	for c := range t.cols {
		if len(t.cols[c]) != n || (t.refs != nil && len(t.refs[c]) != n) {
			return fmt.Errorf("%s: column %d is out of step with %d rows", t.name, c, n)
		}
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
	sc.GrowSur(n)
	metric := t.ds.Space().Metric()
	for row, id := range t.ids {
		if at, ok := t.rowOf[int(id)]; !ok || at != row {
			return fmt.Errorf("%s: directory says object %d is row %d, table says %d", t.name, id, at, row)
		}
		o := t.ds.Object(int(id))
		for c := range t.cols {
			p := c
			if t.refs != nil {
				p = int(t.refs[c][row])
			}
			qd[p] = t.cols[c][row]
			if o != nil && metric.Distance(o, t.pivots[p]) != qd[p] {
				return fmt.Errorf("%s: row %d slot %d stores %v, not the distance of object %d to its pivot", t.name, row, c, qd[p], id)
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

// MemBytes reports the resident size of the table: ids, distance columns,
// pivot-reference columns (why EPT is larger than LAESA in Table 4), the
// quantized shadow and the coordinate mirror.
func (t *Table) MemBytes() int64 {
	n := int64(len(t.ids))*4 + int64(len(t.pivotIDs))*8
	for c := range t.cols {
		n += int64(len(t.cols[c])) * 8
		if t.refs != nil {
			n += int64(len(t.refs[c])) * 4
		}
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
	res    []int         // range: the answer
	flat   bool          // verify through the mirror, with q widened into q64/q32
	q64    []float64
	q32    []float32
	chunk  int // object path: candidates gathered per DistanceMany
	m      int // object path: candidates gathered and not yet verified
	ndist  int // flat path: distances computed, counted once at the end
}

// begin sizes the survivor and chunk buffers and computes the query's
// distance to every pivot (for EPT, every pooled pivot: the m·l term of
// its query cost) through the batch kernel.
func (t *Table) begin(sc *core.Scratch, q core.Object, accept core.Accept) scan {
	qd := sc.GrowQD(len(t.pivots))
	sc.GrowSur(len(t.ids))
	sc.GrowChunk(verifyChunk)
	t.ds.Space().DistanceMany(q, t.pivots, qd)
	s := scan{t: t, sc: sc, q: q, accept: accept, chunk: verifyChunk}
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
		//metriclint:ignore noalloc the range answer itself
		s.res = append(s.res, id)
	}
}

// block is the one staged loop every table query runs, over rows
// [base, end):
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
// exactly what a row-at-a-time scan verifies — a row survives the stale
// (larger) sweep radius whenever it survives the fresh one, and the
// recheck removes the rest — so answers, compdists and disk reads match
// the scalar algorithm. On the chunked path the recheck radius lags by
// the candidates still gathered, which only admits extra candidates the
// heap then rejects: answers stay identical, and chunk 1 (CPT's kNN)
// removes the lag altogether.
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

// Range answers MRQ(q, r) over the accepted ids (nil accept: all of
// them) as one block: a single sweep at the fixed radius, then
// verification.
func (t *Table) Range(q core.Object, r float64, accept core.Accept) ([]int, error) {
	sc := t.scratch.Get()
	s := t.begin(sc, q, accept)
	s.r = r
	err := s.block(0, len(t.ids))
	s.finish()
	t.scratch.Put(sc)
	if err != nil {
		return nil, err
	}
	sort.Ints(s.res)
	return s.res, nil
}

// KNN answers MkNNQ(q, k) over the accepted ids (nil accept: all of
// them): radius starts at infinity and is tightened by each verified
// object (§2.1, second method), visiting rows in storage order — which
// the paper notes is suboptimal but is what LAESA does.
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

// scanKNN stages the kNN scan. Unfiltered, the first min(k, n) rows are
// the seed block: a storage-order scan verifies them unconditionally —
// its radius is infinite until the k-th push — so they are swept (at
// +Inf, keeping every row) and verified as one block, and whatever the
// chunked path has gathered is verified when the block ends, before the
// now-finite radius is read. With an accept test there is no such prefix
// (a rejected row must not cost a distance): the radius simply stays
// +Inf until k accepted candidates have been verified. The remaining
// rows go block by block, knnBlockMin doubling to knnBlock.
func (t *Table) scanKNN(sc *core.Scratch, h *core.KNNHeap, q core.Object, accept core.Accept) error {
	s := t.begin(sc, q, accept)
	s.h = h
	if t.load != nil {
		// Every admission is a disk read, so it is decided at the fresh
		// radius: no candidate waits in a chunk while the radius tightens.
		s.chunk = 1
	}
	n, seed := len(t.ids), 0
	if accept == nil {
		seed = min(h.K(), n)
		if err := s.block(0, seed); err != nil {
			return err
		}
		s.flush()
	}
	for base, blk := seed, knnBlockMin; base < n; base, blk = base+blk, min(blk*2, knnBlock) {
		if err := s.block(base, min(base+blk, n)); err != nil {
			return err
		}
	}
	s.finish()
	return nil
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
// transpose.
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
	t.adopt(ids, distColumns(dists, len(ids), l, rowMajor))
	return t, nil
}

// distColumns splits a flat distance block into per-pivot columns,
// transposing when the block is the row-major layout of version-1
// payloads.
func distColumns(dists []float64, rows, l int, rowMajor bool) [][]float64 {
	cols := make([][]float64, l)
	for i := range cols {
		cols[i] = make([]float64, rows)
		if rowMajor {
			for row := 0; row < rows; row++ {
				cols[i][row] = dists[row*l+i]
			}
		} else {
			copy(cols[i], dists[i*rows:(i+1)*rows])
		}
	}
	return cols
}
