package core

import (
	"fmt"
	"math"
)

// AttrRows is a copy of an AttrStore's cells in the row order of an
// index that does not keep its rows in id order — a pivot table's curve
// order — so that a filter over the index's rows reads each field at
// unit stride, as the Lemma 1 sweep reads a pivot column. Per column id
// of the store it holds one kind byte and one payload per row; a store
// without columns costs nothing. A column keeps its payloads in 32 bits
// while every one it has held fits (string and tag-set codes always do,
// ints from 0 to 2³²−1 do), so it costs 5 or 9 bytes per row.
//
// The index keeps it in lockstep with its own rows (Append, SwapDelete)
// and with the attribute writes it is shown (Refresh). It is stamped
// with the store's write count: a write to a row the copy was not shown
// — a Dataset.SetAttrs behind the index's back — leaves the stamp
// behind for good, InStep turns false and readers go back to the
// store's own columns, until Reset reads the store afresh. It is never
// persisted.
type AttrRows struct {
	cols  []attrCol // by column id
	rows  int
	stamp uint64 // the store's write count the copy reflects
}

// attrCol is one column's copied cells: kinds (0: the row lacks the
// field) and payloads, in vals32 until a payload needs 64 bits, then in
// vals64 for good. The slice in use is never nil.
type attrCol struct {
	kinds  []AttrKind
	vals32 []uint32
	vals64 []uint64
}

func newAttrCol(rows int) attrCol {
	return attrCol{kinds: make([]AttrKind, rows), vals32: make([]uint32, rows)}
}

// widen moves the payloads to 64 bits, if they are not there yet, when
// v does not fit in 32.
func (c *attrCol) widen(v uint64) {
	if c.vals64 != nil || v <= math.MaxUint32 {
		return
	}
	c.vals64 = make([]uint64, len(c.vals32), cap(c.vals32))
	for i, x := range c.vals32 {
		c.vals64[i] = uint64(x)
	}
	c.vals32 = nil
}

func (c *attrCol) set(row int, k AttrKind, v uint64) {
	c.widen(v)
	c.kinds[row] = k
	if c.vals64 != nil {
		c.vals64[row] = v
	} else {
		c.vals32[row] = uint32(v)
	}
}

func (c *attrCol) append(k AttrKind, v uint64) {
	c.widen(v)
	c.kinds = append(c.kinds, k)
	if c.vals64 != nil {
		c.vals64 = append(c.vals64, v)
	} else {
		c.vals32 = append(c.vals32, uint32(v))
	}
}

func (c *attrCol) at(row int) (AttrKind, uint64) {
	if c.vals64 != nil {
		return c.kinds[row], c.vals64[row]
	}
	return c.kinds[row], uint64(c.vals32[row])
}

// Reset rebuilds the copy from s for the rows holding ids, in order.
func (r *AttrRows) Reset(s *AttrStore, ids []int32) {
	*r = AttrRows{rows: len(ids), stamp: s.writes}
	r.grow(s)
	for ci, c := range s.byID {
		if c == nil {
			continue
		}
		for row, id := range ids {
			k, v := c.At(int(id))
			r.cols[ci].set(row, k, v)
		}
	}
}

// grow adds a zeroed column, one cell per row, for every column id of s
// the copy lacks.
func (r *AttrRows) grow(s *AttrStore) {
	for len(r.cols) < len(s.byID) {
		r.cols = append(r.cols, newAttrCol(r.rows))
	}
}

// cell returns the store's cell of column ci for object id.
func cell(s *AttrStore, ci, id int) (AttrKind, uint64) {
	if ci < len(s.byID) && s.byID[ci] != nil {
		return s.byID[ci].At(id)
	}
	return 0, 0
}

// Append adds a last row holding object id's cells.
func (r *AttrRows) Append(s *AttrStore, id int) {
	r.grow(s)
	for ci := range r.cols {
		r.cols[ci].append(cell(s, ci, id))
	}
	r.rows++
	r.shown(s, id)
}

// SwapDelete removes a row, moving the last row into its place (the
// pivot table's swap-delete).
func (r *AttrRows) SwapDelete(row int) {
	last := r.rows - 1
	for ci := range r.cols {
		c := &r.cols[ci]
		k, v := c.at(last)
		c.set(row, k, v)
		c.kinds = c.kinds[:last]
		if c.vals64 != nil {
			c.vals64 = c.vals64[:last]
		} else {
			c.vals32 = c.vals32[:last]
		}
	}
	r.rows = last
}

// Refresh copies object id's cells into row again, after a write to
// them.
func (r *AttrRows) Refresh(s *AttrStore, row, id int) {
	r.grow(s)
	for ci := range r.cols {
		k, v := cell(s, ci, id)
		r.cols[ci].set(row, k, v)
	}
	r.shown(s, id)
}

// shown moves the stamp past the store's last write when that write is
// the only one the copy has not seen and it went to object id, whose
// cells the caller has just copied. Any other write leaves it behind.
func (r *AttrRows) shown(s *AttrStore, id int) {
	if s.writes == r.stamp+1 && s.lastWrite == id {
		r.stamp = s.writes
	}
}

// InStep reports whether the copy holds the cells s holds for its rows'
// objects: no write to s has happened that the copy was not shown.
//
//metriclint:noalloc
func (r *AttrRows) InStep(s *AttrStore) bool { return r.stamp == s.writes }

// Column returns the copied kinds and payloads of one column id, one
// per row: the payloads in vals64 when it is not nil, else in vals32.
// All are nil for an id past the copy's columns.
//
//metriclint:ignore read-only view by contract, not a defensive copy
//metriclint:noalloc
func (r *AttrRows) Column(id uint32) (kinds []AttrKind, vals32 []uint32, vals64 []uint64) {
	if int(id) < len(r.cols) {
		c := &r.cols[id]
		return c.kinds, c.vals32, c.vals64
	}
	return nil, nil, nil
}

// MemBytes reports the copy's resident size: per row and column, the
// kind byte and a 4- or 8-byte payload.
func (r *AttrRows) MemBytes() int64 {
	var n int64
	for _, c := range r.cols {
		n += int64(len(c.kinds)) + 4*int64(len(c.vals32)) + 8*int64(len(c.vals64))
	}
	return n
}

// Check reports the first way the copy is out of step with the rows
// holding ids: a row count or column length other than len(ids), and —
// while InStep holds — a copied cell other than the store's cell of the
// row's object.
func (r *AttrRows) Check(s *AttrStore, ids []int32) error {
	if r.rows != len(ids) {
		return fmt.Errorf("attribute copy holds %d rows, table %d", r.rows, len(ids))
	}
	for ci, c := range r.cols {
		if len(c.kinds) != r.rows || len(c.vals32)+len(c.vals64) != r.rows || (c.vals32 == nil) == (c.vals64 == nil) {
			return fmt.Errorf("attribute copy column %d holds %d kinds and %d+%d payloads for %d rows", ci, len(c.kinds), len(c.vals32), len(c.vals64), r.rows)
		}
	}
	if !r.InStep(s) {
		return nil
	}
	if len(r.cols) < len(s.byID) {
		return fmt.Errorf("attribute copy holds %d columns, the store %d", len(r.cols), len(s.byID))
	}
	for ci := range r.cols {
		for row, id := range ids {
			k, v := cell(s, ci, int(id))
			if ck, cv := r.cols[ci].at(row); ck != k || cv != v {
				return fmt.Errorf("attribute copy row %d column %d holds (%d, %#x), object %d (%d, %#x)", row, ci, ck, cv, id, k, v)
			}
		}
	}
	return nil
}
