package mtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"metricindex/internal/core"
	"metricindex/internal/store"
)

// Node pages (spec: docs/PERSISTENCE.md §Region-tree node pages), all
// integers little-endian, l the number of pivots:
//
//	page            kind u8 (0 leaf, 1 routing) | count u16 | count × entry
//	M-tree leaf     id u32 | pd f64 | point l×f64 | objLen u32 | object
//	M-tree routing  child u32 | radius f64 | pd f64 | box 2l×f64 | objLen u32 | object
//	R-tree leaf     id u32 | RAF offset u64 | point l×f64
//	R-tree routing  child u32 | low corner l×f64 | high corner l×f64
//
// An M-tree box interleaves the bounds of each pivot (the PM-tree's
// rings); an R-tree box writes its low corner, then its high corner.

// fixedSize is the width of an entry without its object.
func (t *Tree) fixedSize(leaf bool) int {
	l := len(t.pivots)
	w := 4 + 8*l // the id or child, the point or low corner
	if !leaf {
		w += 8 * l // the high corner
	}
	switch {
	case t.fam.ball && !leaf:
		return w + 8 + 8 + 4 // radius, parent distance, object length
	case t.fam.ball:
		return w + 8 + 4 // parent distance, object length
	case leaf:
		return w + 8 // RAF offset
	}
	return w
}

func (t *Tree) entrySize(leaf bool, e *entry) int {
	if t.fam.ball {
		return t.fixedSize(leaf) + store.EncodedObjectSize(e.obj)
	}
	return t.fixedSize(leaf)
}

func (t *Tree) nodeSize(n *node) int {
	sz := 3
	for i := range n.entries {
		sz += t.entrySize(n.leaf, &n.entries[i])
	}
	return sz
}

func (t *Tree) fits(n *node) bool { return t.nodeSize(n) <= t.pager.PageSize() }

// write encodes n into page pid; the caller has checked that it fits.
func (t *Tree) write(pid store.PageID, n *node) {
	le := binary.LittleEndian
	buf := make([]byte, 0, t.pager.PageSize())
	kind := byte(1)
	if n.leaf {
		kind = 0
	}
	buf = append(buf, kind)
	buf = le.AppendUint16(buf, uint16(len(n.entries)))
	for i := range n.entries {
		e := &n.entries[i]
		ref := uint32(e.child)
		if n.leaf {
			ref = uint32(e.id)
		}
		buf = le.AppendUint32(buf, ref)
		switch {
		case t.fam.ball && !n.leaf:
			buf = le.AppendUint64(buf, math.Float64bits(e.radius))
			fallthrough
		case t.fam.ball:
			buf = le.AppendUint64(buf, math.Float64bits(e.pd))
		case n.leaf:
			buf = le.AppendUint64(buf, e.raf)
		}
		if t.fam.ball && !n.leaf { // the PM-tree's rings: each pivot's bounds together
			lo, hi := e.box(false)
			for i := range lo {
				buf = le.AppendUint64(buf, math.Float64bits(lo[i]))
				buf = le.AppendUint64(buf, math.Float64bits(hi[i]))
			}
		} else {
			buf = store.EncodeFloats(buf, e.v)
		}
		if t.fam.ball {
			buf = le.AppendUint32(buf, uint32(store.EncodedObjectSize(e.obj)))
			buf = store.EncodeObject(buf, e.obj)
		}
	}
	if err := t.pager.Write(pid, buf); err != nil {
		panic(fmt.Sprintf("mtree: node write overflow: %v (size %d)", err, len(buf)))
	}
}

// cursor walks a node page's entries, checking every count and length
// against the page.
type cursor struct {
	pid           store.PageID
	buf           []byte
	leaf, ball    bool
	count, w, off int // entries, the width of an entry's fixed part, the read offset
}

// open checks page pid's header: a known kind byte and a count the page
// can hold.
func (t *Tree) open(pid store.PageID, buf []byte) (cursor, error) {
	if len(buf) < 3 || buf[0] > 1 {
		return cursor{}, fmt.Errorf("mtree: page %d is not a node page", pid)
	}
	c := cursor{pid: pid, buf: buf, leaf: buf[0] == 0, count: int(binary.LittleEndian.Uint16(buf[1:3])), ball: t.fam.ball, off: 3}
	c.w = t.fixedSize(c.leaf)
	if c.count > (len(buf)-3)/c.w {
		return cursor{}, fmt.Errorf("mtree: page %d counts %d entries of at least %d bytes", pid, c.count, c.w)
	}
	return c, nil
}

// next returns the next entry's fixed part and its object's bytes (nil in
// the R-tree).
func (c *cursor) next() (fixed, obj []byte, err error) {
	if len(c.buf)-c.off < c.w {
		return nil, nil, fmt.Errorf("mtree: page %d truncated", c.pid)
	}
	fixed = c.buf[c.off : c.off+c.w]
	c.off += c.w
	if c.ball {
		n := binary.LittleEndian.Uint32(fixed[c.w-4:])
		if uint64(n) > uint64(len(c.buf)-c.off) {
			return nil, nil, fmt.Errorf("mtree: page %d holds an object of %d bytes past its end", c.pid, n)
		}
		obj = c.buf[c.off : c.off+int(n)]
		c.off += int(n)
	}
	return fixed, obj, nil
}

// decode parses node page pid.
func (t *Tree) decode(pid store.PageID, buf []byte) (*node, error) {
	le := binary.LittleEndian
	c, err := t.open(pid, buf)
	if err != nil {
		return nil, err
	}
	l, width := len(t.pivots), len(t.pivots)
	if !c.leaf {
		width *= 2
	}
	n := &node{leaf: c.leaf, entries: make([]entry, c.count)}
	flo := make([]float64, width*c.count) // every entry's point or box
	for i := range n.entries {
		fixed, obj, err := c.next()
		if err != nil {
			return nil, err
		}
		e := &n.entries[i]
		e.v, flo = flo[:width:width], flo[width:]
		ref, rest := le.Uint32(fixed), fixed[4:]
		e.id, e.child, e.pd = int32(ref), store.PageID(ref), math.Inf(1)
		switch {
		case t.fam.ball && !c.leaf:
			e.radius, rest = math.Float64frombits(le.Uint64(rest)), rest[8:]
			fallthrough
		case t.fam.ball:
			e.pd, rest = math.Float64frombits(le.Uint64(rest)), rest[8:]
		case c.leaf:
			e.raf, rest = le.Uint64(rest), rest[8:]
		}
		for i := range e.v {
			j := i // the PM-tree's rings hold each pivot's bounds together
			if t.fam.ball && !c.leaf {
				j = i%l*2 + i/l
			}
			e.v[i] = math.Float64frombits(le.Uint64(rest[8*j:]))
		}
		if obj != nil {
			var used int
			if e.obj, used, err = store.DecodeObject(obj); err == nil && used != len(obj) {
				err = errors.New("length disagrees with its header")
			}
			if err != nil {
				return nil, fmt.Errorf("mtree: page %d object: %w", pid, err)
			}
		}
	}
	return n, nil
}

// read fetches and decodes node page pid — one page access, modulo the
// cache.
func (t *Tree) read(pid store.PageID) (*node, error) {
	buf, err := t.pager.Read(pid)
	if err != nil {
		return nil, err
	}
	return t.decode(pid, buf)
}

// ReadObject fetches the stored object by id, paying the leaf page access
// (this is how CPT loads candidates for verification, §3.3). Only the
// matching entry's object is decoded — the equivalent of the paper's
// direct pointers from CPT's distance table into the M-tree leaves.
func (t *Tree) ReadObject(id int) (core.Object, error) {
	pid, ok := t.leafOf[id]
	if !ok {
		return nil, fmt.Errorf("mtree: no object %d", id)
	}
	buf, err := t.pager.Read(pid)
	if err != nil {
		return nil, err
	}
	c, err := t.open(pid, buf)
	if err != nil {
		return nil, err
	}
	if !c.leaf {
		return nil, fmt.Errorf("mtree: directory points to non-leaf page %d", pid)
	}
	for range c.count {
		fixed, obj, err := c.next()
		if err != nil {
			return nil, err
		}
		if int(binary.LittleEndian.Uint32(fixed)) == id {
			obj, _, err := store.DecodeObject(obj)
			return obj, err
		}
	}
	return nil, fmt.Errorf("mtree: directory points to leaf %d but object %d is missing", pid, id)
}
