package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"metricindex/internal/core"
)

// Writer accumulates a payload of the one byte codec every cold format
// shares: snapshot payloads, volume images, RAF state and dataset files.
// All integers are little-endian; variable-length fields carry a u32
// length (or count) prefix, and only Raw writes bytes unprefixed. Objects
// use the object codec — the same bytes the RAF stores.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends 1 or 0 as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I64 appends an int64 as its two's-complement uint64 image.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit image.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends bytes with no length prefix (a magic, a page image): the
// reader must know their length.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends a u32 length followed by the raw bytes.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a u32 length followed by the string bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Object appends one object in the store codec (self-delimiting).
func (w *Writer) Object(o core.Object) { w.buf = EncodeObject(w.buf, o) }

// Attrs appends one attribute bag in the store attrs codec
// (self-delimiting; an empty bag encodes as zero fields).
func (w *Writer) Attrs(a core.AttrSource) { w.buf = EncodeAttrs(w.buf, a) }

// RowAttrs appends the attribute fields of one dataset row, encoded as
// Attrs encodes the equal bag.
func (w *Writer) RowAttrs(ds *core.Dataset, id int) { w.buf = EncodeAttrs(w.buf, ds.AttrRow(id)) }

// Objects appends a u32 count followed by each object.
func (w *Writer) Objects(os []core.Object) {
	w.U32(uint32(len(os)))
	for _, o := range os {
		w.Object(o)
	}
}

// Ints appends a u32 count followed by each value as u32 (object and
// page identifiers all fit).
func (w *Writer) Ints(xs []int) {
	w.U32(uint32(len(xs)))
	for _, x := range xs {
		w.U32(uint32(x))
	}
}

// Int32s appends a u32 count followed by each value as u32.
func (w *Writer) Int32s(xs []int32) {
	w.U32(uint32(len(xs)))
	for _, x := range xs {
		w.U32(uint32(x))
	}
}

// Pivots appends a pivot list: the pivots' dataset ids (Ints), then
// their values (Objects).
func (w *Writer) Pivots(ids []int, vals []core.Object) {
	w.Ints(ids)
	w.Objects(vals)
}

// PageIDs appends a u32 count followed by each page id as u32.
func (w *Writer) PageIDs(xs []PageID) {
	w.U32(uint32(len(xs)))
	for _, x := range xs {
		w.U32(uint32(x))
	}
}

// Floats appends a u32 count followed by each value as F64.
func (w *Writer) Floats(xs []float64) {
	w.U32(uint32(len(xs)))
	for _, x := range xs {
		w.F64(x)
	}
}

// Reader decodes a payload written by Writer. It is sticky-error: the
// first malformed read poisons the reader, subsequent reads return zero
// values, and Err reports the failure. Every length is validated against
// the remaining bytes before any allocation, so corrupt input cannot
// cause panics or outsized allocations.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps a payload for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// ExpectEOF poisons the reader if unread bytes remain.
func (r *Reader) ExpectEOF() {
	if r.err == nil && r.Remaining() != 0 {
		r.fail("%d trailing bytes", r.Remaining())
	}
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: malformed payload at offset %d: %s", r.off, fmt.Sprintf(format, args...))
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("need %d bytes, have %d", n, r.Remaining())
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte, failing unless it is 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail("bool byte %d", v)
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count reads a u32 count and validates count×minElemBytes against the
// remaining payload, so callers can allocate count elements safely.
func (r *Reader) Count(minElemBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || n > r.Remaining()/minElemBytes {
		r.fail("count %d exceeds %d remaining bytes (min elem %d)", n, r.Remaining(), minElemBytes)
		return 0
	}
	return n
}

// Raw returns the next n bytes, written by Writer.Raw (aliasing the
// input buffer).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Blob reads a u32 length and returns that many bytes (aliasing the
// input buffer).
func (r *Reader) Blob() []byte {
	n := r.Count(1)
	return r.take(n)
}

// String reads a u32 length and the string bytes.
func (r *Reader) String() string { return string(r.Blob()) }

// Object reads one store-codec object.
func (r *Reader) Object() core.Object {
	if r.err != nil {
		return nil
	}
	o, n, err := DecodeObject(r.data[r.off:])
	if err != nil {
		r.fail("object: %v", err)
		return nil
	}
	r.off += n
	return o
}

// Attrs reads one store-codec attribute bag (nil for zero fields).
func (r *Reader) Attrs() core.Attrs {
	if r.err != nil {
		return nil
	}
	a, n, err := DecodeAttrs(r.data[r.off:])
	if err != nil {
		r.fail("attrs: %v", err)
		return nil
	}
	r.off += n
	return a
}

// AttrsSpan validates one store-codec attribute bag and returns its bytes
// (aliasing the input), for a store.AttrDecoder to decode into a dataset
// row once the dataset exists.
func (r *Reader) AttrsSpan() []byte {
	if r.err != nil {
		return nil
	}
	n, err := AttrsLen(r.data[r.off:])
	if err != nil {
		r.fail("attrs: %v", err)
		return nil
	}
	return r.take(n)
}

// Objects reads a u32 count followed by that many objects, each of which
// must be of ref's kind (core.SameKind; ref is a stored object of the
// dataset, or nil, and then the list's first object sets the kind) or the
// reader is poisoned: every list a payload stores (pivots, pivot
// candidates, probes, a dataset file's objects) is measured against the
// dataset's objects, and a metric cannot take another kind.
func (r *Reader) Objects(ref core.Object) []core.Object {
	n := r.Count(5) // smallest object is tag + u32 length
	if r.err != nil {
		return nil
	}
	os := make([]core.Object, n)
	for i := range os {
		os[i] = r.Object()
		if ref == nil {
			ref = os[i]
		}
		if r.err == nil && !core.SameKind(ref, os[i]) {
			r.fail("object %d of %d is not of the dataset's kind", i, n)
		}
		if r.err != nil {
			return nil
		}
	}
	return os
}

// Ints reads a u32 count followed by that many u32 values as ints.
func (r *Reader) Ints() []int {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(r.U32())
	}
	return xs
}

// Int32s reads a u32 count followed by that many u32 values as int32s.
func (r *Reader) Int32s() []int32 {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(r.U32())
	}
	return xs
}

// Pivots reads a pivot list Writer.Pivots wrote, its values of ref's
// kind (Objects). The list must be non-empty and hold one value per id,
// or the reader is poisoned.
func (r *Reader) Pivots(ref core.Object) ([]int, []core.Object) {
	ids, vals := r.Ints(), r.Objects(ref)
	if r.err == nil && (len(ids) == 0 || len(vals) != len(ids)) {
		r.fail("%d pivot values for %d pivot ids", len(vals), len(ids))
	}
	if r.err != nil {
		return nil, nil
	}
	return ids, vals
}

// PageIDs reads a u32 count followed by that many page ids.
func (r *Reader) PageIDs() []PageID {
	n := r.Count(4)
	if r.err != nil {
		return nil
	}
	xs := make([]PageID, n)
	for i := range xs {
		xs[i] = PageID(r.U32())
	}
	return xs
}

// Floats reads a u32 count followed by that many float64 values.
func (r *Reader) Floats() []float64 {
	n := r.Count(8)
	if r.err != nil {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.F64()
	}
	return xs
}
