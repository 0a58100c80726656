package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"metricindex/internal/core"
)

// Object serialization. Every disk-based index stores objects (in a RAF or
// inside tree nodes) using this format:
//
//	tag(1) | payload
//	tag 1: Vector     — uint32 len, len × float64 (little endian)
//	tag 2: IntVector  — uint32 len, len × int32
//	tag 3: Word       — uint32 len, raw bytes
//	tag 4: Vector32   — uint32 len, len × float32
const (
	tagVector    = 1
	tagIntVector = 2
	tagWord      = 3
	tagVector32  = 4
)

// EncodedObjectSize returns the number of bytes EncodeObject will produce.
func EncodedObjectSize(o core.Object) int {
	switch v := o.(type) {
	case core.Vector:
		return 1 + 4 + 8*len(v)
	case core.IntVector:
		return 1 + 4 + 4*len(v)
	case core.Word:
		return 1 + 4 + len(v)
	case core.Vector32:
		return 1 + 4 + 4*len(v)
	default:
		panic(fmt.Sprintf("store: cannot size object of type %T", o))
	}
}

// EncodeObject appends the serialized form of o to dst and returns the
// extended slice.
func EncodeObject(dst []byte, o core.Object) []byte {
	switch v := o.(type) {
	case core.Vector:
		dst = append(dst, tagVector)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case core.IntVector:
		dst = append(dst, tagIntVector)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
		}
	case core.Word:
		dst = append(dst, tagWord)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		dst = append(dst, v...)
	case core.Vector32:
		dst = append(dst, tagVector32)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v)))
		for _, x := range v {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
		}
	default:
		panic(fmt.Sprintf("store: cannot encode object of type %T", o))
	}
	return dst
}

// DecodeObject parses one object from the front of buf, returning the
// object and the number of bytes consumed.
func DecodeObject(buf []byte) (core.Object, int, error) {
	if len(buf) < 5 {
		return nil, 0, fmt.Errorf("store: truncated object header (%d bytes)", len(buf))
	}
	tag := buf[0]
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	body := buf[5:]
	switch tag {
	case tagVector:
		if len(body) < 8*n {
			return nil, 0, fmt.Errorf("store: truncated vector of %d dims", n)
		}
		v := make(core.Vector, n)
		for i := 0; i < n; i++ {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
		return v, 5 + 8*n, nil
	case tagIntVector:
		if len(body) < 4*n {
			return nil, 0, fmt.Errorf("store: truncated int vector of %d dims", n)
		}
		v := make(core.IntVector, n)
		for i := 0; i < n; i++ {
			v[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return v, 5 + 4*n, nil
	case tagWord:
		if len(body) < n {
			return nil, 0, fmt.Errorf("store: truncated word of %d bytes", n)
		}
		return core.Word(string(body[:n])), 5 + n, nil
	case tagVector32:
		if len(body) < 4*n {
			return nil, 0, fmt.Errorf("store: truncated float32 vector of %d dims", n)
		}
		v := make(core.Vector32, n)
		for i := 0; i < n; i++ {
			v[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
		}
		return v, 5 + 4*n, nil
	default:
		return nil, 0, fmt.Errorf("store: unknown object tag %d", tag)
	}
}

// EncodeFloats appends a fixed-length float64 slice (a pre-computed
// distance vector) to dst.
func EncodeFloats(dst []byte, fs []float64) []byte {
	for _, x := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// DecodeFloats parses l float64 values from the front of buf into dst's
// backing array (grown when too small).
func DecodeFloats(dst []float64, buf []byte, l int) ([]float64, int, error) {
	if len(buf) < 8*l {
		return nil, 0, fmt.Errorf("store: truncated float vector of %d entries", l)
	}
	dst = dst[:0]
	for i := 0; i < l; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:])))
	}
	return dst, 8 * l, nil
}
