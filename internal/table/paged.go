package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// A paged table keeps its rows in a store.RowFile, one record a row:
//
//	shared layout:  id u32 | l × dist f64
//	per-row layout: id u32 | l × (pivot u32, dist f64)
//
// where a per-row pivot is its dataset id (the pool index is rebuilt at
// load) and a deleted row's record is the tombstone id followed by
// zeros. Each page is one block of the scan.

// tombstone is the id of a deleted row's record.
const tombstone = ^uint32(0)

// newPaged returns an empty table whose rows live in a row file on pager:
// the shared-pivot layout over pivots, or, when pivots is nil, the
// per-row layout of l slots. Candidates are fetched through load; a range
// query gathers rangeGather of them before it loads and verifies them, a
// kNN query one.
func newPaged(name string, ds *core.Dataset, pager *store.Pager, pivots []core.Object, l int, load func(id int) (core.Object, error), rangeGather int) (*Table, error) {
	t := newTable(name, ds, load)
	t.pivots, t.l, t.gather[0] = pivots, l, rangeGather
	width := 4 + 8*l
	if pivots == nil {
		t.poolOf = make(map[int32]int32)
		width = 4 + 12*l
	}
	var err error
	if t.file, err = store.NewRowFile(pager, width); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	t.rec = make([]byte, width)
	return t, nil
}

// record encodes a row into the table's record buffer.
func (t *Table) record(id uint32, refs []int32, dists []float64) []byte {
	binary.LittleEndian.PutUint32(t.rec, id)
	for c, d := range dists {
		at := 4 + 8*c
		if t.poolOf != nil {
			at = 4 + 12*c
			binary.LittleEndian.PutUint32(t.rec[at:], uint32(t.poolIDs[refs[c]]))
			at += 4
		}
		binary.LittleEndian.PutUint64(t.rec[at:], math.Float64bits(d))
	}
	return t.rec
}

// field decodes slot c of a record: the pivot's dataset id (−1 on the
// shared layout) and the distance.
//
//metriclint:noalloc
func (t *Table) field(rec []byte, c int) (int32, float64) {
	if t.poolOf == nil {
		return -1, math.Float64frombits(binary.LittleEndian.Uint64(rec[4+8*c:]))
	}
	return int32(binary.LittleEndian.Uint32(rec[4+12*c:])), math.Float64frombits(binary.LittleEndian.Uint64(rec[8+12*c:]))
}

// decodePage reads page b — one page access — into the block columns:
// its live records in storage order, the per-row layout's pivots as pool
// indices. It returns how many rows it decoded.
//
//metriclint:noalloc
func (t *Table) decodePage(b int, ids []int32, refs [][]int32, cols [][]float64) (int, error) {
	recs, err := t.file.Page(b)
	if err != nil {
		return 0, err
	}
	m, w := 0, t.file.Width()
	for off := 0; off < len(recs); off += w {
		rec := recs[off : off+w]
		id := binary.LittleEndian.Uint32(rec)
		if id == tombstone {
			continue
		}
		ids[m] = int32(id)
		for c := range cols {
			p, d := t.field(rec, c)
			cols[c][m] = d
			if refs != nil {
				refs[c][m] = t.poolOf[p]
			}
		}
		m++
	}
	return m, nil
}

// eachRecord calls fn with every record of the file in order, tombstones
// included, decoded into its id, its slots' pivot ids (per-row layout)
// and distances. It reads the pages without a page access: for loading
// and validating, never for a query.
func (t *Table) eachRecord(fn func(row int, id uint32, pivots []int32, dists []float64) error) error {
	pivots, dists := make([]int32, t.l), make([]float64, t.l)
	row, w := 0, t.file.Width()
	for i := range t.file.PageIDs() {
		recs := t.file.Peek(i)
		for off := 0; off < len(recs); off, row = off+w, row+1 {
			for c := range dists {
				pivots[c], dists[c] = t.field(recs[off:off+w], c)
			}
			if err := fn(row, binary.LittleEndian.Uint32(recs[off:]), pivots, dists); err != nil {
				return err
			}
		}
	}
	return nil
}

// validateFile is Validate's check of a paged table: the directory and
// the records agree, and every stored distance is the distance from the
// record's object to the pivot its slot names.
func (t *Table) validateFile() error {
	live := 0
	metric := t.ds.Space().Metric()
	if err := t.eachRecord(func(row int, id uint32, pivots []int32, dists []float64) error {
		if id == tombstone {
			return nil
		}
		live++
		if at := t.Row(int(id)); at != row {
			return fmt.Errorf("%s: directory says object %d is record %d, the file says %d", t.name, id, at, row)
		}
		o := t.ds.Object(int(id))
		for c, d := range dists {
			p := int32(c)
			if t.poolOf != nil {
				p = t.poolOf[pivots[c]]
			}
			if o != nil && metric.Distance(o, t.pivots[p]) != d && !math.IsNaN(d) {
				return fmt.Errorf("%s: record %d slot %d stores %v, not the distance of object %d to its pivot", t.name, row, c, d, id)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if live != t.live {
		return fmt.Errorf("%s: the file holds %d live records, the table counts %d", t.name, live, t.live)
	}
	return nil
}

// fileSection is a paged table's snapshot section as read — the file's
// pages and record count, and the directory's (id, record) pairs — for
// openFile to check against the pages.
type fileSection struct {
	pages []store.PageID
	rows  int
	dir   [][2]uint32
}

// encodeFile writes the paged table's snapshot section: the file's
// pages, its record count, and the directory, every indexed id with its
// record, ids ascending. The records themselves are in the pager's
// volume image.
func (t *Table) encodeFile(w *store.Writer) {
	w.PageIDs(t.file.PageIDs())
	w.U32(uint32(t.file.Rows()))
	dir := t.directory()
	w.U32(uint32(len(dir)))
	for _, e := range dir {
		w.U32(e[0])
		w.U32(e[1])
	}
}

// directory lists every indexed id with its record, ids ascending.
func (t *Table) directory() [][2]uint32 {
	dir := make([][2]uint32, 0, t.live)
	for id, row := range t.dir {
		if row >= 0 {
			dir = append(dir, [2]uint32{uint32(id), uint32(row)})
		}
	}
	return dir
}

// decodeFile reads the section encodeFile writes; the reader's error
// reports a short one.
func decodeFile(r *store.Reader) fileSection {
	sec := fileSection{pages: r.PageIDs(), rows: int(r.U32())}
	n := r.Count(8)
	for i := 0; i < n && r.Err() == nil; i++ {
		sec.dir = append(sec.dir, [2]uint32{r.U32(), r.U32()})
	}
	return sec
}

// openFile restores the empty paged table's rows from its snapshot section,
// rebuilding the directory and the per-row layout's pool from the
// records in storage order — pool(p) is the stored value of pivot p, nil
// when there is none. It rejects what would panic or corrupt a later
// query or update: page counts the file's shape does not allow
// (store.RowFile.Restore), live record ids outside the dataset or stored
// twice, pivots without a stored value, and a directory that disagrees
// with the records.
func (t *Table) openFile(sec fileSection, pool func(p int32) core.Object) error {
	if err := t.file.Restore(sec.pages, sec.rows); err != nil {
		return fmt.Errorf("%s: %w", t.name, err)
	}
	t.dir = make([]int32, t.ds.Len())
	for id := range t.dir {
		t.dir[id] = -1
	}
	if err := t.eachRecord(func(row int, id uint32, pivots []int32, _ []float64) error {
		if id == tombstone {
			return nil
		}
		if int64(id) >= int64(len(t.dir)) || t.dir[id] >= 0 {
			return fmt.Errorf("%s: record %d holds object %d, outside the dataset's %d ids or stored twice", t.name, row, id, len(t.dir))
		}
		t.dir[id] = int32(row)
		t.live++
		for _, p := range pivots {
			if t.poolOf == nil {
				break
			}
			v := pool(p)
			if v == nil {
				return fmt.Errorf("%s: record %d cites pivot %d, which has no stored value", t.name, row, p)
			}
			t.pivotRef(p, v)
		}
		return nil
	}); err != nil {
		return err
	}
	if !slices.Equal(sec.dir, t.directory()) {
		return fmt.Errorf("%s: the directory's %d entries disagree with the %d live records", t.name, len(sec.dir), t.live)
	}
	return nil
}
