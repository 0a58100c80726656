// Package sfc implements space-filling curves over d-dimensional integer
// grids: the Hilbert curve the SPB-tree uses to map pre-computed distance
// vectors to single integer keys while preserving spatial proximity
// (§5.4), and the Z-order (Morton) curve — the ablation baseline, and
// the row order of the in-memory pivot table.
//
// Both curves operate on points with Dims coordinates of Bits <= 32 bits
// each, with Dims*Bits <= 64 so a key fits in uint64.
package sfc

import "fmt"

// Curve maps grid points to one-dimensional keys and back.
type Curve interface {
	// Encode maps a point (one value per dimension, each < 2^Bits) to its
	// curve key.
	Encode(point []uint32) uint64
	// Decode inverts Encode.
	Decode(key uint64) []uint32
	// Dims returns the dimensionality.
	Dims() int
	// Bits returns the bits per coordinate.
	Bits() int
	// Name identifies the curve ("hilbert" or "zorder").
	Name() string
}

// Hilbert is the d-dimensional Hilbert curve (Skilling's transpose
// algorithm, "Programming the Hilbert curve", 2004). Encode and Decode
// run Skilling's loops; DecodePacked and Cursor answer the same decode
// from the level automaton of decode.go when dims <= maxTableDims.
type Hilbert struct {
	dims, bits int
	keyMask    uint64    // the dims*bits key bits
	step       []uint32  // level automaton; nil above maxTableDims
	spread     []uint64  // level digit -> its bits in the PackCorner lanes
	levelOf    [64]uint8 // key bit position -> level (position / dims)
	laneOnes   uint64    // bit 0 of every PackCorner lane
}

// NewHilbert validates the grid shape and returns the curve.
func NewHilbert(dims, bits int) (*Hilbert, error) {
	if err := validate(dims, bits); err != nil {
		return nil, err
	}
	h := &Hilbert{dims: dims, bits: bits, keyMask: ^uint64(0) >> uint(64-dims*bits)}
	for pos := range h.levelOf {
		h.levelOf[pos] = uint8(pos / dims)
	}
	for j := 0; j < dims; j++ {
		h.laneOnes |= 1 << uint(j*bits)
	}
	if dims <= maxTableDims {
		h.step = stepTable(dims)
		h.spread = make([]uint64, 1<<uint(dims))
		for v := range h.spread {
			for j := 0; j < dims; j++ {
				h.spread[v] |= uint64(v>>uint(j)&1) << uint(j*bits)
			}
		}
	}
	return h, nil
}

func validate(dims, bits int) error {
	if dims < 1 {
		return fmt.Errorf("sfc: need at least one dimension, got %d", dims)
	}
	if bits < 1 || dims*bits > 64 {
		return fmt.Errorf("sfc: dims*bits = %d*%d must be in [1, 64]", dims, bits)
	}
	if bits > 32 {
		return fmt.Errorf("sfc: %d bits per coordinate exceed the 32 a coordinate holds", bits)
	}
	return nil
}

// Dims returns the dimensionality.
func (h *Hilbert) Dims() int { return h.dims }

// Bits returns the bits per coordinate.
func (h *Hilbert) Bits() int { return h.bits }

// Name returns "hilbert".
func (h *Hilbert) Name() string { return "hilbert" }

// Encode maps a point to its Hilbert index.
func (h *Hilbert) Encode(point []uint32) uint64 {
	var buf [64]uint32
	x := buf[:h.dims]
	copy(x, point)
	axesToTranspose(x, h.bits)
	return interleave(x, h.bits)
}

// Decode maps a Hilbert index back to its point. It is the
// specification of the curve: the table-driven decoders are tested
// against it.
func (h *Hilbert) Decode(key uint64) []uint32 {
	x := make([]uint32, h.dims)
	deinterleave(x, key, h.bits)
	transposeToAxes(x, h.bits)
	return x
}

// axesToTranspose converts coordinates into the "transposed" Hilbert form
// in place (Skilling's AxestoTranspose).
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << (bits - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place (Skilling's
// TransposetoAxes).
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	top := uint32(2) << (bits - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != top; q <<= 1 {
		undoLevel(x, q)
	}
}

// undoLevel is one level of Skilling's "undo excess work": bit q of each
// coordinate decides whether the bits below q of x[0] are inverted or
// exchanged with those of x[i]. It reads only bit q and writes only the
// bits below it, which is what makes decode a top-down automaton
// (decode.go builds its tables by running this on single digits).
func undoLevel(x []uint32, q uint32) {
	p := q - 1
	for i := len(x) - 1; i >= 0; i-- {
		if x[i]&q != 0 {
			x[0] ^= p
		} else {
			t := (x[0] ^ x[i]) & p
			x[0] ^= t
			x[i] ^= t
		}
	}
}

// interleave packs the transposed form into a single key: bit (b-1-k) of
// every dimension, most significant coordinate bit first.
func interleave(x []uint32, bits int) uint64 {
	var key uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < len(x); i++ {
			key = key<<1 | uint64((x[i]>>uint(b))&1)
		}
	}
	return key
}

// deinterleave splits a key back into the transposed form, filling the
// zeroed x (one entry per dimension).
func deinterleave(x []uint32, key uint64, bits int) {
	pos := len(x)*bits - 1
	for b := bits - 1; b >= 0; b-- {
		for i := range x {
			x[i] |= uint32((key>>uint(pos))&1) << uint(b)
			pos--
		}
	}
}

// ZOrder is the Morton (bit-interleaving) curve: the simpler alternative
// used by the SFC ablation benchmark, and the row order of the in-memory
// pivot table (internal/table), which encodes one key per row at build —
// where Hilbert's bit-serial Encode would cost more than the rest of the
// build.
type ZOrder struct {
	dims, bits int
	// spread maps a coordinate byte to its bits dims positions apart —
	// the interleave of one byte of one coordinate, before its shift.
	spread [256]uint64
}

// NewZOrder validates the grid shape and returns the curve.
func NewZOrder(dims, bits int) (*ZOrder, error) {
	if err := validate(dims, bits); err != nil {
		return nil, err
	}
	z := &ZOrder{dims: dims, bits: bits}
	for v := range z.spread {
		for j := 0; j < 8; j++ {
			z.spread[v] |= uint64(v>>j&1) << uint(j*dims)
		}
	}
	return z, nil
}

// Dims returns the dimensionality.
func (z *ZOrder) Dims() int { return z.dims }

// Bits returns the bits per coordinate.
func (z *ZOrder) Bits() int { return z.bits }

// Name returns "zorder".
func (z *ZOrder) Name() string { return "zorder" }

// Encode interleaves the coordinate bits, most significant bit level
// first and coordinate 0 first within a level: bit b of coordinate i
// lands at key bit b*dims + dims-1-i. It spreads one coordinate byte per
// table lookup, so a key costs dims*ceil(bits/8) lookups rather than a
// loop over every key bit.
func (z *ZOrder) Encode(point []uint32) uint64 {
	mask := uint32(1)<<uint(z.bits) - 1 // bits = 32 wraps to all ones
	var key uint64
	for i, c := range point[:z.dims] {
		c &= mask
		for sh := uint(z.dims - 1 - i); c != 0; sh += uint(8 * z.dims) {
			key |= z.spread[c&0xFF] << sh
			c >>= 8
		}
	}
	return key
}

// Decode de-interleaves the key.
func (z *ZOrder) Decode(key uint64) []uint32 {
	x := make([]uint32, z.dims)
	deinterleave(x, key, z.bits)
	return x
}

// PackCorner packs a coordinate vector into a uint64 by plain
// concatenation (Bits bits per dimension). The SPB-tree stores MBB corners
// of non-leaf entries as two such packed integers (§5.4 stores them as SFC
// values; plain packing is an equivalent compact integer encoding whose
// decode is exact and cheaper).
func PackCorner(point []uint32, bits int) uint64 {
	var key uint64
	for _, c := range point {
		key = key<<uint(bits) | uint64(c&((1<<uint(bits))-1))
	}
	return key
}
