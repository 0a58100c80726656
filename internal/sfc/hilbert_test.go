package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHilbertRoundTrip(t *testing.T) {
	shapes := []struct{ dims, bits int }{
		{1, 8}, {2, 4}, {2, 16}, {3, 8}, {5, 12}, {7, 9}, {9, 7}, {16, 4},
	}
	for _, s := range shapes {
		h, err := NewHilbert(s.dims, s.bits)
		if err != nil {
			t.Fatalf("NewHilbert(%d,%d): %v", s.dims, s.bits, err)
		}
		rng := rand.New(rand.NewSource(int64(s.dims*100 + s.bits)))
		for trial := 0; trial < 500; trial++ {
			p := make([]uint32, s.dims)
			for i := range p {
				p[i] = rng.Uint32() & ((1 << uint(s.bits)) - 1)
			}
			got := h.Decode(h.Encode(p))
			for i := range p {
				if got[i] != p[i] {
					t.Fatalf("dims=%d bits=%d: round trip %v -> %v", s.dims, s.bits, p, got)
				}
			}
		}
	}
}

func TestHilbertBijectiveSmallGrid(t *testing.T) {
	h, err := NewHilbert(2, 4) // 256 cells
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64][]uint32)
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			k := h.Encode([]uint32{x, y})
			if k >= 256 {
				t.Fatalf("key %d out of range for 2x4-bit grid", k)
			}
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %d maps both %v and (%d,%d)", k, prev, x, y)
			}
			seen[k] = []uint32{x, y}
		}
	}
	if len(seen) != 256 {
		t.Fatalf("expected 256 distinct keys, got %d", len(seen))
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert keys must be adjacent grid cells (unit L1 step):
	// the locality property the SPB-tree exploits.
	for _, s := range []struct{ dims, bits int }{{2, 5}, {3, 4}} {
		h, err := NewHilbert(s.dims, s.bits)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(1) << uint(s.dims*s.bits)
		prev := h.Decode(0)
		for k := uint64(1); k < total; k++ {
			cur := h.Decode(k)
			var l1 int64
			for i := range cur {
				d := int64(cur[i]) - int64(prev[i])
				if d < 0 {
					d = -d
				}
				l1 += d
			}
			if l1 != 1 {
				t.Fatalf("dims=%d bits=%d: keys %d->%d jump L1=%d (%v -> %v)",
					s.dims, s.bits, k-1, k, l1, prev, cur)
			}
			prev = cur
		}
	}
}

func TestZOrderRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	z, err := NewZOrder(5, 12)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c, d, e uint32) bool {
		p := []uint32{a & 0xFFF, b & 0xFFF, c & 0xFFF, d & 0xFFF, e & 0xFFF}
		got := z.Decode(z.Encode(p))
		for i := range p {
			if got[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestZOrderEncodeMatchesInterleave checks the byte-spread encoder
// against its specification — the bit-at-a-time interleave of the masked
// coordinates, which Decode inverts — on every grid shape class: one
// byte per coordinate (the pivot table's 8 bits), several bytes, a
// partial top byte, and more dimensions than a byte has bits.
func TestZOrderEncodeMatchesInterleave(t *testing.T) {
	shapes := []struct{ dims, bits int }{
		{1, 32}, {2, 16}, {3, 21}, {5, 8}, {5, 12}, {8, 8}, {7, 9}, {16, 4}, {64, 1},
	}
	for _, s := range shapes {
		z, err := NewZOrder(s.dims, s.bits)
		if err != nil {
			t.Fatalf("NewZOrder(%d,%d): %v", s.dims, s.bits, err)
		}
		rng := rand.New(rand.NewSource(int64(s.dims*100 + s.bits)))
		mask := uint32(1)<<uint(s.bits) - 1
		for trial := 0; trial < 500; trial++ {
			p, masked := make([]uint32, s.dims), make([]uint32, s.dims)
			for i := range p {
				p[i] = rng.Uint32() // stray high bits must be ignored
				masked[i] = p[i] & mask
			}
			if got, want := z.Encode(p), interleave(masked, s.bits); got != want {
				t.Fatalf("dims=%d bits=%d: Encode(%v) = %#x, want %#x", s.dims, s.bits, p, got, want)
			}
			got := z.Decode(z.Encode(p))
			for i := range masked {
				if got[i] != masked[i] {
					t.Fatalf("dims=%d bits=%d: round trip %v -> %v", s.dims, s.bits, masked, got)
				}
			}
		}
	}
}

func TestHilbertBetterLocalityThanZOrder(t *testing.T) {
	// Average L1 jump between consecutive keys: Hilbert is exactly 1;
	// Z-order must be strictly worse. This is the premise of the paper's
	// choice of curve for the SPB-tree.
	dims, bits := 2, 6
	h, _ := NewHilbert(dims, bits)
	z, _ := NewZOrder(dims, bits)
	total := uint64(1) << uint(dims*bits)
	jump := func(c Curve) float64 {
		var sum int64
		prev := c.Decode(0)
		for k := uint64(1); k < total; k++ {
			cur := c.Decode(k)
			for i := range cur {
				d := int64(cur[i]) - int64(prev[i])
				if d < 0 {
					d = -d
				}
				sum += d
			}
			prev = cur
		}
		return float64(sum) / float64(total-1)
	}
	hj, zj := jump(h), jump(z)
	if hj >= zj {
		t.Fatalf("hilbert mean jump %.3f should beat zorder %.3f", hj, zj)
	}
}

// unpackCorner inverts PackCorner.
func unpackCorner(key uint64, dims, bits int) []uint32 {
	out := make([]uint32, dims)
	mask := uint64(1)<<uint(bits) - 1
	for i := dims - 1; i >= 0; i-- {
		out[i] = uint32(key & mask)
		key >>= uint(bits)
	}
	return out
}

func TestPackCornerRoundTrip(t *testing.T) {
	f := func(a, b, c uint32) bool {
		p := []uint32{a & 0x3FF, b & 0x3FF, c & 0x3FF}
		got := unpackCorner(PackCorner(p, 10), 3, 10)
		for i := range p {
			if got[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCurveValidation(t *testing.T) {
	if _, err := NewHilbert(0, 8); err == nil {
		t.Fatal("dims=0 must fail")
	}
	if _, err := NewHilbert(9, 8); err == nil {
		t.Fatal("9*8=72 bits must fail")
	}
	if _, err := NewZOrder(4, 0); err == nil {
		t.Fatal("bits=0 must fail")
	}
	if _, err := NewHilbert(1, 33); err == nil {
		t.Fatal("33-bit coordinates do not fit a uint32 and must fail")
	}
}
