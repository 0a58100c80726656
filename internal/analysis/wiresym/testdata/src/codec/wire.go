// Package codec models the persist wire layer: a Writer/Reader pair
// (matched by type name) and codec halves for wiresym to pair up.
package codec

// Writer is a stand-in for store.Writer.
type Writer struct{ buf []byte }

func (w *Writer) U8(v uint8)    {}
func (w *Writer) Bool(v bool)   {}
func (w *Writer) U16(v uint16)  {}
func (w *Writer) U32(v uint32)  {}
func (w *Writer) U64(v uint64)  {}
func (w *Writer) I64(v int64)   {}
func (w *Writer) F64(v float64) {}
func (w *Writer) Blob(b []byte) {}
func (w *Writer) Raw(b []byte)  {}
func (w *Writer) Ints(v []int)  {}
func (w *Writer) Count(n int)   {}
func (w *Writer) Bytes() []byte { return w.buf }

// Reader is a stand-in for store.Reader.
type Reader struct{ err error }

func (r *Reader) U8() uint8        { return 0 }
func (r *Reader) Bool() bool       { return false }
func (r *Reader) U16() uint16      { return 0 }
func (r *Reader) U32() uint32      { return 0 }
func (r *Reader) U64() uint64      { return 0 }
func (r *Reader) I64() int64       { return 0 }
func (r *Reader) F64() float64     { return 0 }
func (r *Reader) Blob() []byte     { return nil }
func (r *Reader) Raw(n int) []byte { return nil }
func (r *Reader) Ints() []int      { return nil }
func (r *Reader) Count() int       { return 0 }
func (r *Reader) Err() error       { return r.err }
func (r *Reader) Remaining() int   { return 0 }
