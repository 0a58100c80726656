package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"metricindex/internal/core"
)

// Attribute-bag serialization, shared by the MIDX dataset files, the
// MXSNAP attrs section, and MXWAL records:
//
//	attrs: uint16 nFields | nFields × field
//	field: uint16 keyLen, key bytes | kind(1) | payload
//	  kind 1 (int):    int64 (little endian)
//	  kind 2 (float):  float64 bits
//	  kind 3 (string): uint16 len, raw bytes
//	  kind 4 (tags):   uint16 count, count × (uint16 len, raw bytes)
//
// Fields are written in sorted key order so the encoding of a given bag
// is deterministic (snapshot byte-stability tests rely on it). A bag and
// a dataset row holding the same fields encode to the same bytes.

// EncodeAttrs appends the serialized form of a — a bag or a dataset row —
// to dst and returns the extended slice. An empty bag encodes as a zero
// field count. Every length must fit its u16 frame, which
// core.ValidateAttrs checks and every dataset row satisfies: an
// over-long one panics rather than being truncated into bytes a decoder
// would misread.
func EncodeAttrs[S core.AttrSource](dst []byte, a S) []byte {
	e := attrEncoders.Get().(*attrEncoder)
	a.AttrFields(e.add)
	slices.SortFunc(e.fields, func(x, y attrField) int { return strings.Compare(x.name, y.name) })
	dst = appendLen(dst, len(e.fields))
	for _, f := range e.fields {
		dst = appendField(dst, f.name, f.v)
	}
	clear(e.fields)
	e.fields = e.fields[:0]
	attrEncoders.Put(e)
	return dst
}

// attrEncoder collects a source's fields, which come in no particular
// order, for EncodeAttrs to sort. Its add function is bound once, so a
// pooled encoder encodes without allocating.
type attrEncoder struct {
	fields []attrField
	add    func(string, core.AttrValue) bool
}

type attrField struct {
	name string
	v    core.AttrValue
}

var attrEncoders = sync.Pool{New: func() any {
	e := new(attrEncoder)
	e.add = func(k string, v core.AttrValue) bool {
		e.fields = append(e.fields, attrField{k, v})
		return true
	}
	return e
}}

func appendField(dst []byte, k string, v core.AttrValue) []byte {
	dst = appendLen(dst, len(k))
	dst = append(dst, k...)
	dst = append(dst, byte(v.Kind()))
	switch v.Kind() {
	case core.AttrInt:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case core.AttrFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case core.AttrString:
		dst = appendLen(dst, len(v.Str()))
		dst = append(dst, v.Str()...)
	case core.AttrTags:
		tags := v.Tags()
		dst = appendLen(dst, len(tags))
		for _, t := range tags {
			dst = appendLen(dst, len(t))
			dst = append(dst, t...)
		}
	default:
		panic(fmt.Sprintf("store: cannot encode attr kind %d", v.Kind()))
	}
	return dst
}

func appendLen(dst []byte, n int) []byte {
	if n > core.MaxAttrLen {
		panic(fmt.Sprintf("store: attribute length %d exceeds its u16 frame", n))
	}
	return binary.LittleEndian.AppendUint16(dst, uint16(n))
}

// DecodeAttrs parses one attribute bag from the front of buf, returning
// the bag (nil when it was empty) and the number of bytes consumed.
func DecodeAttrs(buf []byte) (core.Attrs, int, error) {
	var bag core.Attrs
	var p attrParser
	n, err := p.parse(buf, func(k string, v core.AttrValue) bool {
		if bag == nil {
			bag = make(core.Attrs, binary.LittleEndian.Uint16(buf))
		}
		bag[k] = v
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return bag, n, nil
}

// AttrsLen validates the bag at the front of buf and returns its encoded
// length, building nothing.
func AttrsLen(buf []byte) (int, error) {
	var p attrParser
	return p.parse(buf, nil)
}

// AttrDecoder decodes bags straight into dataset rows. It interns the
// keys and strings it reads, so restoring many rows with the same field
// names and values allocates each string once.
type AttrDecoder struct {
	src encodedAttrs
}

// NewAttrDecoder returns a decoder with an empty string table.
func NewAttrDecoder() *AttrDecoder {
	return &AttrDecoder{src: encodedAttrs{p: attrParser{intern: make(map[string]string)}}}
}

// DecodeInto makes the bag at the front of span — one whose framing
// AttrsLen has checked — the attribute fields of row id of ds (which
// must be live).
func (d *AttrDecoder) DecodeInto(span []byte, ds *core.Dataset, id int) error {
	d.src.buf, d.src.err = span, nil
	if err := ds.SetAttrs(id, &d.src); err != nil {
		return err
	}
	return d.src.err
}

// encodedAttrs reads one encoded bag as a core.AttrSource.
type encodedAttrs struct {
	p   attrParser
	buf []byte
	err error // the parse error, had the framing not been checked
}

func (e *encodedAttrs) AttrLen() int { return int(binary.LittleEndian.Uint16(e.buf)) }

func (e *encodedAttrs) AttrFields(yield func(string, core.AttrValue) bool) {
	_, e.err = e.p.parse(e.buf, yield)
}

// attrParser is the one reader of the attrs codec: it checks the framing
// and hands each field to a yield function, if any.
type attrParser struct {
	// intern holds the strings read so far; nil builds each afresh. An
	// interning parser also keeps every tag of a bag in one scratch
	// slice, reused by the next bag (as AttrSource allows).
	intern map[string]string
	tags   []string
	buf    []byte
	off    int
}

func (p *attrParser) str(b []byte) string {
	if p.intern == nil {
		return string(b)
	}
	if s, ok := p.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	p.intern[s] = s
	return s
}

// bytes reads one u16-framed byte string.
func (p *attrParser) bytes(what string) ([]byte, error) {
	if len(p.buf)-p.off < 2 {
		return nil, fmt.Errorf("store: truncated attrs %s header", what)
	}
	n := int(binary.LittleEndian.Uint16(p.buf[p.off:]))
	p.off += 2
	if len(p.buf)-p.off < n {
		return nil, fmt.Errorf("store: truncated attrs %s of %d bytes", what, n)
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

// parse reads one bag from the front of buf, passing each field to
// yield (nil: check the framing only) until it returns false, and
// returns the number of bytes the bag takes.
func (p *attrParser) parse(buf []byte, yield func(string, core.AttrValue) bool) (int, error) {
	p.buf, p.off, p.tags = buf, 0, p.tags[:0]
	if len(buf) < 2 {
		return 0, fmt.Errorf("store: truncated attrs header (%d bytes)", len(buf))
	}
	nFields := int(binary.LittleEndian.Uint16(buf))
	p.off = 2
	for i := 0; i < nFields; i++ {
		kb, err := p.bytes("key")
		if err != nil {
			return 0, err
		}
		if len(buf)-p.off < 1 {
			return 0, fmt.Errorf("store: truncated attr kind for %q", kb)
		}
		kind := core.AttrKind(buf[p.off])
		p.off++
		var v core.AttrValue
		switch kind {
		case core.AttrInt, core.AttrFloat:
			if len(buf)-p.off < 8 {
				return 0, fmt.Errorf("store: truncated numeric attr %q", kb)
			}
			bits := binary.LittleEndian.Uint64(buf[p.off:])
			p.off += 8
			if kind == core.AttrInt {
				v = core.IntValue(int64(bits))
			} else {
				v = core.FloatValue(math.Float64frombits(bits))
			}
		case core.AttrString:
			b, err := p.bytes("string")
			if err != nil {
				return 0, err
			}
			if yield != nil {
				v = core.StringValue(p.str(b))
			}
		case core.AttrTags:
			if len(buf)-p.off < 2 {
				return 0, fmt.Errorf("store: truncated tag count for %q", kb)
			}
			n := int(binary.LittleEndian.Uint16(buf[p.off:]))
			p.off += 2
			var tags []string
			if yield != nil && p.intern == nil {
				tags = make([]string, 0, n)
			}
			start := len(p.tags)
			for j := 0; j < n; j++ {
				t, err := p.bytes("tag")
				if err != nil {
					return 0, err
				}
				switch {
				case yield == nil:
				case p.intern != nil:
					p.tags = append(p.tags, p.str(t))
				default:
					tags = append(tags, p.str(t))
				}
			}
			if p.intern != nil {
				tags = p.tags[start:len(p.tags):len(p.tags)]
			}
			v = core.TagsValue(tags...)
		default:
			return 0, fmt.Errorf("store: unknown attr kind %d for %q", kind, kb)
		}
		if yield != nil && !yield(p.str(kb), v) {
			break
		}
	}
	return p.off, nil
}
