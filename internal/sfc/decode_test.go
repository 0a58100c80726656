package sfc

import (
	"fmt"
	"math/rand"
	"testing"

	"metricindex/internal/testutil"
)

// checkDecoders asserts that the table decode and the cursor agree with
// the specification (Skilling's loop) on key, and returns the decoded
// point.
func checkDecoders(t testing.TB, h *Hilbert, cur *Cursor, key uint64) []uint32 {
	t.Helper()
	pt := h.Decode(key)
	want := PackCorner(pt, h.bits)
	if got := h.DecodePacked(key); got != want {
		t.Fatalf("dims=%d bits=%d key=%#x: DecodePacked=%#x, Skilling=%#x", h.dims, h.bits, key, got, want)
	}
	if got := cur.DecodePacked(key); got != want {
		t.Fatalf("dims=%d bits=%d key=%#x: cursor=%#x, Skilling=%#x", h.dims, h.bits, key, got, want)
	}
	return pt
}

// TestDecodePackedMatchesSkilling drives the table decode and the cursor
// over every grid shape of one to six dimensions — exhaustively where
// the key space is small, otherwise over at least 200 000 keys: random
// ones, each followed by the near neighbours a sorted leaf presents to
// the cursor (repeats, small increments, single-bit flips) — and over
// the loop fallback above six dimensions.
func TestDecodePackedMatchesSkilling(t *testing.T) {
	bases := 200000 / 12
	if testing.Short() || testutil.RaceEnabled {
		bases /= 20
	}
	for dims := 1; dims <= 9; dims++ {
		for bits := 1; bits <= 32 && dims*bits <= 64; bits++ {
			t.Run(fmt.Sprintf("%dx%d", dims, bits), func(t *testing.T) {
				t.Parallel()
				h, err := NewHilbert(dims, bits)
				if err != nil {
					t.Fatal(err)
				}
				if (h.step != nil) != (dims <= maxTableDims) {
					t.Fatalf("dims=%d: table presence %v", dims, h.step != nil)
				}
				var cur Cursor
				cur.Reset(h)
				total := dims * bits
				if total <= 16 {
					for key := uint64(0); key < 1<<uint(total); key++ {
						checkDecoders(t, h, &cur, key)
					}
					for key := uint64(1)<<uint(total) - 1; key >= 3; key -= 3 {
						checkDecoders(t, h, &cur, key) // descending, with gaps
					}
					return
				}
				rng := rand.New(rand.NewSource(int64(dims*100 + bits)))
				n := bases
				if dims > maxTableDims {
					n = 300 // the fallback is the specification plus PackCorner
				}
				for i := 0; i < n; i++ {
					key := rng.Uint64() & h.keyMask
					checkDecoders(t, h, &cur, key)
					checkDecoders(t, h, &cur, key)
					for _, step := range []uint64{1, 1, 2, 5, 17, 255} {
						key = (key + step) & h.keyMask
						checkDecoders(t, h, &cur, key)
					}
					for j := 0; j < 4; j++ {
						checkDecoders(t, h, &cur, key^1<<uint(rng.Intn(total)))
					}
				}
				// Bits above the key width are ignored, as Decode ignores them.
				checkDecoders(t, h, &cur, ^uint64(0))
			})
		}
	}
}

// checkSubCubes asserts, at every level L, that key's level-L prefix
// run (PrefixRun) decodes inside the box SubCube gives for key's cell,
// and that SharedLevel names the level: a run of up to 256 keys is
// walked whole and must fill its box, one key per cell; a longer one is
// sampled at its ends, at key and at a few points between.
func checkSubCubes(t testing.TB, h *Hilbert, cur *Cursor, key uint64) {
	t.Helper()
	packed := PackCorner(h.Decode(key), h.bits)
	lane := uint64(1)<<uint(h.bits) - 1
	inside := func(level int, lo, hi, k uint64) uint64 {
		p := PackCorner(checkDecoders(t, h, cur, k), h.bits)
		for j := 0; j < h.dims; j++ {
			sh := uint(j * h.bits)
			if v := p >> sh & lane; v < lo>>sh&lane || v > hi>>sh&lane {
				t.Fatalf("dims=%d bits=%d key=%#x level %d: run key %#x decodes to %#x, outside [%#x, %#x]",
					h.dims, h.bits, key, level, k, p, lo, hi)
			}
		}
		return p
	}
	for level := 0; level <= h.bits; level++ {
		first, last := h.PrefixRun(key, level)
		if first > key&h.keyMask || last < key&h.keyMask {
			t.Fatalf("dims=%d bits=%d key=%#x level %d: run [%#x, %#x] misses the key", h.dims, h.bits, key, level, first, last)
		}
		if got := h.SharedLevel(first, last); got != level {
			t.Fatalf("dims=%d bits=%d key=%#x level %d: SharedLevel of the run's ends is %d", h.dims, h.bits, key, level, got)
		}
		lo, hi := h.SubCube(packed, level)
		if last-first < 256 {
			cells := map[uint64]bool{}
			for k := first; ; k++ {
				cells[inside(level, lo, hi, k)] = true
				if k == last {
					break
				}
			}
			if uint64(len(cells)) != last-first+1 || len(cells) != 1<<uint(level*h.dims) {
				t.Fatalf("dims=%d bits=%d key=%#x level %d: %d keys decode to %d cells of a %d-cell box",
					h.dims, h.bits, key, level, last-first+1, len(cells), 1<<uint(level*h.dims))
			}
			continue
		}
		for _, k := range []uint64{first, last, key & h.keyMask, first + (last-first)/3, first + (last-first)/3*2, first + (last-first)/2 + 1} {
			inside(level, lo, hi, k)
		}
	}
}

// FuzzHilbertDecode: on any grid shape and key, the table decode, the
// cursor (cold, and resuming from a neighbouring key) and Skilling's
// loop agree, and Encode inverts them; at every level, the key's prefix
// run decodes inside its sub-cube (checkSubCubes), on the table path and
// on Skilling's (seven dimensions and more).
func FuzzHilbertDecode(f *testing.F) {
	f.Add(uint64(0), uint8(5), uint8(12))
	f.Add(uint64(0x0123456789abcdef), uint8(2), uint8(32))
	f.Add(^uint64(0), uint8(6), uint8(10))
	f.Add(uint64(1)<<59, uint8(7), uint8(9))
	f.Add(uint64(0x2f6e1b9d4c3a8157), uint8(6), uint8(7))
	f.Fuzz(func(t *testing.T, key uint64, dims, bits uint8) {
		d := 1 + int(dims)%9
		b := 1 + int(bits)%min(32, 64/d)
		h, err := NewHilbert(d, b)
		if err != nil {
			t.Fatalf("NewHilbert(%d, %d): %v", d, b, err)
		}
		var cur Cursor
		cur.Reset(h)
		pt := checkDecoders(t, h, &cur, key)
		if back := h.Encode(pt); back != key&h.keyMask {
			t.Fatalf("dims=%d bits=%d key=%#x: Encode(Decode(key))=%#x", d, b, key, back)
		}
		checkDecoders(t, h, &cur, key+1)
		checkDecoders(t, h, &cur, key)
		checkDecoders(t, h, &cur, key^uint64(bits)<<uint(dims%64))
		checkSubCubes(t, h, &cur, key)
	})
}

// TestDecodePackedAllocs is the runtime witness of the noalloc
// annotations: neither decoder allocates, on the table path or on the
// loop fallback.
func TestDecodePackedAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, dims := range []int{5, 7} {
		h, err := NewHilbert(dims, 8)
		if err != nil {
			t.Fatal(err)
		}
		var cur Cursor
		cur.Reset(h)
		key := uint64(0x1234567)
		var sink uint64
		if allocs := testing.AllocsPerRun(1000, func() {
			key += 977
			sink += h.DecodePacked(key) + cur.DecodePacked(key)
		}); allocs != 0 {
			t.Fatalf("dims=%d: decode allocated %.1f times per key; want 0", dims, allocs)
		}
		_ = sink
	}
}
