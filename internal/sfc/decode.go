package sfc

import (
	mathbits "math/bits"
	"sync"
)

// Hilbert decode as an automaton (docs/KERNELS.md, "Hilbert decode as an
// automaton"). After the Gray step g = key ^ key>>1, each level of
// Skilling's undo loop (undoLevel) reads only untransformed bits of g
// and rewrites only the bits below it, with one signed axis permutation
// per level digit w: T_w(v) = Q_w·v ^ f_w. The output digit of level c
// is therefore S_c(g_c) with S_c = T_top ∘ … ∘ T_(c+1), and walking the
// levels top-down keeps S as a permutation index P plus a flip mask F:
//
//	out = P·w ^ F;  F ^= P·f_w;  P = P∘Q_w
//
// stepTable holds, per (P, w), the three right-hand sides in one word.

// maxTableDims bounds the table-driven decode: the automaton has up to
// dims! states of 2^dims digits each — 46 080 entries at six
// dimensions, 645 120 at seven, where the table outgrows the cache it
// is meant to live in and the state index outgrows its 16-bit field.
const maxTableDims = 6

// A step entry packs P·w in its low byte, P·f_w in the next, and the
// successor state's table offset (index << dims) in the high half.
const (
	stepFlipShift = 8
	stepNextShift = 16
)

// stepTables memoizes the automaton per dimensionality: it depends on
// dims alone, is immutable once built, and is shared by every curve
// (one per shard, one per R-tree bulk load) of that shape.
var stepTables [maxTableDims + 1]struct {
	once sync.Once
	step []uint32
}

func stepTable(dims int) []uint32 {
	t := &stepTables[dims]
	t.once.Do(func() { t.step = buildStepTable(dims) })
	return t.step
}

// buildStepTable derives the automaton from the level rule itself: it
// runs undoLevel on single digits to read off Q_w and f_w, then
// enumerates the permutations reachable from the identity.
func buildStepTable(dims int) []uint32 {
	n := uint(dims)
	digits := 1 << n
	// rule applies one level with digit w to the digit v below it. The
	// bit of dimension i sits at digit position dims-1-i, as in the key.
	rule := func(w, v int) int {
		var x [maxTableDims]uint32
		for i := 0; i < dims; i++ {
			at := n - 1 - uint(i)
			x[i] = uint32(w>>at&1)<<1 | uint32(v>>at&1)
		}
		undoLevel(x[:dims], 2)
		out := 0
		for i := 0; i < dims; i++ {
			out |= int(x[i]&1) << (n - 1 - uint(i))
		}
		return out
	}
	// perm[j] is the output position of input bit j.
	type perm [maxTableDims]uint8
	var identity perm
	for j := range identity {
		identity[j] = uint8(j)
	}
	flip := make([]int, digits)
	opPerm := make([]perm, digits)
	for w := range flip {
		flip[w] = rule(w, 0)
		opPerm[w] = identity
		for j := 0; j < dims; j++ {
			opPerm[w][j] = uint8(mathbits.TrailingZeros(uint(rule(w, 1<<uint(j)) ^ flip[w])))
		}
	}
	apply := func(p perm, v int) uint32 {
		var out uint32
		for j := 0; j < dims; j++ {
			out |= uint32(v>>uint(j)&1) << p[j]
		}
		return out
	}
	index := map[perm]int{identity: 0}
	states := []perm{identity}
	var step []uint32
	for s := 0; s < len(states); s++ {
		p := states[s]
		for w := 0; w < digits; w++ {
			next := identity
			for j := 0; j < dims; j++ {
				next[j] = p[opPerm[w][j]]
			}
			ni, ok := index[next]
			if !ok {
				ni = len(states)
				index[next] = ni
				states = append(states, next)
			}
			step = append(step, apply(p, w)|apply(p, flip[w])<<stepFlipShift|uint32(ni<<n)<<stepNextShift)
		}
	}
	return step
}

// TableBytes reports the resident size of the decode tables (zero above
// maxTableDims, where decode is Skilling's loop).
func (h *Hilbert) TableBytes() int64 {
	return int64(len(h.step))*4 + int64(len(h.spread))*8
}

// DecodePacked returns PackCorner(h.Decode(key), h.Bits()) — the grid
// cell in the packed lane layout — without allocating.
//
//metriclint:noalloc
func (h *Hilbert) DecodePacked(key uint64) uint64 {
	if h.step == nil {
		var buf [64]uint32
		x := buf[:h.dims]
		deinterleave(x, key, h.bits)
		transposeToAxes(x, h.bits)
		return PackCorner(x, h.bits)
	}
	g := key & h.keyMask
	g ^= g >> 1
	n := uint(h.dims)
	dm := uint32(1)<<n - 1
	var packed uint64
	var st, f uint32
	for c := h.bits - 1; c >= 0; c-- {
		e := h.step[st|uint32(g>>(uint(c)*n))&dm]
		packed |= h.spread[(e^f)&dm] << uint(c)
		f ^= e >> stepFlipShift
		st = e >> stepNextShift
	}
	return packed
}

// Cursor decodes a sequence of keys, resuming each decode below the
// high digits the key shares with the previous one: the automaton's
// state on entering a level depends only on the digits above it. Keys
// may come in any order; sorted keys (a B+-tree leaf) share the most.
// A Cursor is not safe for concurrent use.
type Cursor struct {
	h   *Hilbert
	g   uint64 // Gray form of the last key
	out uint64 // its decode
	// Per level, on entering it for the last key: the automaton state
	// (table offset | flip mask << 16) and the lanes accumulated above.
	state [64]uint32
	acc   [64]uint64
}

// Reset binds the cursor to a curve.
func (c *Cursor) Reset(h *Hilbert) {
	c.h = h
	if h.step != nil {
		c.g = 0
		c.out = c.run(0, h.bits-1, 0, 0)
	}
}

// DecodePacked is Hilbert.DecodePacked through the cursor.
//
//metriclint:noalloc
func (c *Cursor) DecodePacked(key uint64) uint64 {
	h := c.h
	if h.step == nil {
		return h.DecodePacked(key)
	}
	g := key & h.keyMask
	g ^= g >> 1
	diff := g ^ c.g
	if diff == 0 {
		return c.out
	}
	top := int(h.levelOf[63-mathbits.LeadingZeros64(diff)])
	c.g = g
	c.out = c.run(g, top, c.state[top], c.acc[top])
	return c.out
}

// run walks levels top..0 of g from the given entry state, recording
// the entry state of each level it passes.
//
//metriclint:noalloc
func (c *Cursor) run(g uint64, top int, state uint32, packed uint64) uint64 {
	step, spread := c.h.step, c.h.spread
	n := uint(c.h.dims)
	dm := uint32(1)<<n - 1
	st, f := state&0xffff, state>>16
	for lv, shift := uint(top), uint(top)*n; lv < 64; lv, shift = lv-1, shift-n {
		c.state[lv] = st | (f&dm)<<16
		c.acc[lv] = packed
		e := step[st|uint32(g>>(shift&63))&dm]
		packed |= spread[(e^f)&dm] << lv
		f ^= e >> stepFlipShift
		st = e >> stepNextShift
	}
	return packed
}

// Sub-cubes. Level L of a key is its L-th digit from the bottom, and
// its level-L prefix is what lies above: key >> (L·dims). A coordinate
// bit at level b depends only on the digits at levels b and above (each
// level of the decode reads its own digit and rewrites only the bits
// below it), so the 2^(L·dims) keys of one level-L prefix are the cells
// of one aligned sub-cube: every lane shares its high bits with the
// prefix's first key and runs through all values of its low L bits. A
// sorted key list (a B+-tree leaf) thus holds a sub-cube's keys as one
// contiguous run.

// SharedLevel returns the least level L at which keys a and b share
// their level-L prefix: 0 when they are equal, at most Bits.
//
//metriclint:noalloc
func (h *Hilbert) SharedLevel(a, b uint64) int {
	diff := (a ^ b) & h.keyMask
	if diff == 0 {
		return 0
	}
	return int(h.levelOf[63-mathbits.LeadingZeros64(diff)]) + 1
}

// PrefixRun returns the first and the last key of key's level-L prefix.
//
//metriclint:noalloc
func (h *Hilbert) PrefixRun(key uint64, level int) (first, last uint64) {
	low := uint64(1)<<uint(level*h.dims) - 1 // all ones at 64 bits
	key &= h.keyMask
	return key &^ low, key | low&h.keyMask
}

// SubCube returns the box, in the PackCorner lanes, of the cells of the
// level-L prefix of the key whose cell is packed (its DecodePacked):
// packed with each lane's low L bits cleared (lo) and set (hi).
//
//metriclint:noalloc
func (h *Hilbert) SubCube(packed uint64, level int) (lo, hi uint64) {
	low := (uint64(1)<<uint(level) - 1) * h.laneOnes
	return packed &^ low, packed | low
}
