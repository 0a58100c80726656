package store

import (
	"encoding/binary"
	"math"

	"metricindex/internal/core"
)

// DecodeVectorInto decodes buf when it holds an encoded core.Vector —
// the record every vector dataset stores — into dst, which is reused
// when it already has the vector's length and replaced by a fresh
// vector otherwise. It reports false, decoding nothing, for any other
// object type and for a malformed record; DecodeObject handles both.
func DecodeVectorInto(dst core.Vector, buf []byte) (core.Vector, bool) {
	if len(buf) < 5 || buf[0] != tagVector {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	body := buf[5:]
	if len(body) < 8*n {
		return nil, false
	}
	if len(dst) != n {
		dst = make(core.Vector, n)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return dst, true
}
