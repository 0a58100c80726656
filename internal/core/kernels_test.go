package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// specials are the awkward float64 values the batch/scalar agreement
// must survive: the kernels reorder accumulation, and only a genuinely
// shared pipeline keeps NaN and ±Inf propagation bit-identical.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1e308, -1e308, 5e-324}

func randVector(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * 100
		}
	}
	return v
}

func randVector32(rng *rand.Rand, dim int) Vector32 {
	v := make(Vector32, dim)
	for i := range v {
		if rng.Intn(8) == 0 {
			v[i] = float32(specials[rng.Intn(len(specials))])
		} else {
			v[i] = float32(rng.NormFloat64() * 100)
		}
	}
	return v
}

// sameBits reports bit-for-bit float equality (NaN == NaN, +0 != -0):
// the agreement contract of BatchMetric, stronger than ==.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// sameValue is sameBits up to a NaN's payload. Where two NaNs meet in
// an add, the one kept depends on the operand order the compiler picks
// for the generic kernel, and its -race and fuzzing builds pick other
// orders than the default build: l1Kernel64 agrees with the default
// build's NaN payloads, but no fixed body can agree with all of them.
func sameValue(a, b float64) bool {
	return sameBits(a, b) || math.IsNaN(a) && math.IsNaN(b)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool {
		return s.Key == "-race" && s.Value == "true"
	})
}

// TestDistanceManyMatchesScalar checks every built-in BatchMetric against
// pairwise scalar Distance, bit for bit, across dimensions that exercise
// the unrolled lanes (0..4 remainders) and special values.
func TestDistanceManyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	metrics := []BatchMetric{L1{}, L2{}, LInf{}}
	for _, m := range metrics {
		for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 13, 64} {
			q := randVector(rng, dim)
			objs := make([]Object, 33)
			for i := range objs {
				objs[i] = randVector(rng, dim)
			}
			out := make([]float64, len(objs))
			m.DistanceMany(q, objs, out)
			for i, o := range objs {
				if want := m.Distance(q, o); !sameBits(out[i], want) {
					t.Fatalf("%s dim %d: DistanceMany[%d] = %v, scalar = %v", m.Name(), dim, i, out[i], want)
				}
			}

			q32 := randVector32(rng, dim)
			objs32 := make([]Object, 33)
			for i := range objs32 {
				objs32[i] = randVector32(rng, dim)
			}
			m.DistanceMany(q32, objs32, out)
			for i, o := range objs32 {
				if want := m.Distance(q32, o); !sameBits(out[i], want) {
					t.Fatalf("%s dim %d float32: DistanceMany[%d] = %v, scalar = %v", m.Name(), dim, i, out[i], want)
				}
			}
		}
	}
}

// TestDistanceFlatMatchesScalar checks the flat kernels over packed
// row-major coordinates against scalar Distance on the same rows.
func TestDistanceFlatMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	metrics := []BatchMetric{L1{}, L2{}, LInf{}}
	for _, m := range metrics {
		for _, dim := range []int{1, 3, 4, 6, 16} {
			q := randVector(rng, dim)
			const rows = 29
			flat := make([]float64, 0, rows*dim)
			objs := make([]Vector, rows)
			for i := range objs {
				objs[i] = randVector(rng, dim)
				flat = append(flat, objs[i]...)
			}
			out := make([]float64, rows)
			m.DistanceFlat(q, flat, dim, out)
			for i, o := range objs {
				if want := m.Distance(q, o); !sameBits(out[i], want) {
					t.Fatalf("%s dim %d: DistanceFlat[%d] = %v, scalar = %v", m.Name(), dim, i, out[i], want)
				}
			}
		}
	}
}

// TestIntLInfBatchMatchesScalar checks the integer Chebyshev kernel both
// through DistanceMany on IntVectors and through DistanceFlat on widened
// coordinates.
func TestIntLInfBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := IntLInf{}
	for _, dim := range []int{1, 2, 4, 5, 9} {
		q := make(IntVector, dim)
		for i := range q {
			q[i] = int32(rng.Intn(2001) - 1000)
		}
		objs := make([]Object, 21)
		flat := make([]float64, 0, len(objs)*dim)
		for i := range objs {
			v := make(IntVector, dim)
			for j := range v {
				v[j] = int32(rng.Intn(2001) - 1000)
			}
			objs[i] = v
			for _, x := range v {
				flat = append(flat, float64(x))
			}
		}
		out := make([]float64, len(objs))
		m.DistanceMany(q, objs, out)
		for i, o := range objs {
			if want := m.Distance(q, o); !sameBits(out[i], want) {
				t.Fatalf("IntLinf dim %d: DistanceMany[%d] = %v, scalar = %v", dim, i, out[i], want)
			}
		}
		q64 := make([]float64, dim)
		for i, x := range q {
			q64[i] = float64(x)
		}
		m.DistanceFlat(q64, flat, dim, out)
		for i, o := range objs {
			if want := m.Distance(q, o); !sameBits(out[i], want) {
				t.Fatalf("IntLinf dim %d: DistanceFlat[%d] = %v, scalar = %v", dim, i, out[i], want)
			}
		}
	}
}

// TestBatchDimMismatchPanics checks the batch validation panics carry the
// metric name — the per-batch replacement of the per-pair checkDim must
// not lose diagnosability.
func TestBatchDimMismatchPanics(t *testing.T) {
	cases := []struct {
		metric BatchMetric
		name   string
		run    func(m BatchMetric)
	}{
		{L2{}, "L2", func(m BatchMetric) {
			m.DistanceMany(Vector{1, 2}, []Object{Vector{1, 2, 3}}, make([]float64, 1))
		}},
		{L1{}, "L1", func(m BatchMetric) {
			m.DistanceFlat([]float64{1, 2}, []float64{1, 2, 3}, 3, make([]float64, 1))
		}},
		{LInf{}, "Linf", func(m BatchMetric) {
			m.DistanceFlat([]float64{1, 2, 3}, []float64{1, 2, 3, 4}, 3, make([]float64, 2))
		}},
		{IntLInf{}, "IntLinf", func(m BatchMetric) {
			m.DistanceMany(IntVector{1}, []Object{IntVector{1, 2}}, make([]float64, 1))
		}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: no panic on dimension mismatch", c.name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, c.name) {
					t.Fatalf("%s: panic %v does not name the metric", c.name, r)
				}
			}()
			c.run(c.metric)
		}()
	}
}

// TestL2BoundNeverRejectsWithin checks L2's Bound, the radius in squared
// space, is conservative: for any candidate with true distance <= r the
// squared distance must not exceed it, whatever rounding r*r suffered.
func TestL2BoundNeverRejectsWithin(t *testing.T) {
	k, _ := PreKernelFor(L2{})
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20000; trial++ {
		d := rng.Float64() * 1e3
		sq := d * d
		// Any radius at or above the true distance must keep the candidate.
		r := d * (1 + rng.Float64())
		if sq > k.Bound(r) {
			t.Fatalf("Bound(%v) = %v rejects a candidate with true distance %v <= r", r, k.Bound(r), d)
		}
		if sq > k.Bound(d) {
			t.Fatalf("Bound(%v) = %v rejects the boundary candidate", d, k.Bound(d))
		}
	}
	if !(0 > k.Bound(-1)) {
		t.Fatal("a negative radius must reject every distance")
	}
}

// TestLpIntegerOrdersMatchGeneric checks the P=1/2/3 fast paths of Lp
// against L1/L2 and the generic closed form.
func TestLpIntegerOrdersMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + rng.Intn(12)
		a, b := make(Vector, dim), make(Vector, dim)
		for i := 0; i < dim; i++ {
			a[i] = rng.NormFloat64() * 10
			b[i] = rng.NormFloat64() * 10
		}
		if got, want := (Lp{P: 1}).Distance(a, b), (L1{}).Distance(a, b); !sameBits(got, want) {
			t.Fatalf("Lp{1} = %v, L1 = %v", got, want)
		}
		if got, want := (Lp{P: 2}).Distance(a, b), (L2{}).Distance(a, b); !sameBits(got, want) {
			t.Fatalf("Lp{2} = %v, L2 = %v", got, want)
		}
		var s3 float64
		for i := 0; i < dim; i++ {
			d := math.Abs(a[i] - b[i])
			s3 += d * d * d
		}
		want3 := math.Cbrt(s3)
		if got := (Lp{P: 3}).Distance(a, b); math.Abs(got-want3) > 1e-9*(1+want3) {
			t.Fatalf("Lp{3} = %v, want %v", got, want3)
		}
	}
}

// FuzzBatchKernels fuzzes the batch/scalar agreement with raw bit
// patterns, so arbitrary NaN payloads, subnormals and infinities flow
// through both pipelines.
func FuzzBatchKernels(f *testing.F) {
	f.Add(uint64(0), uint64(0x7FF8000000000001), uint64(0xFFF0000000000000), uint64(1))
	f.Add(uint64(0x3FF0000000000000), uint64(0x4000000000000000), uint64(0x0000000000000001), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3 uint64) {
		q := Vector{math.Float64frombits(b0), math.Float64frombits(b1)}
		o := Vector{math.Float64frombits(b2), math.Float64frombits(b3)}
		out := make([]float64, 1)
		for _, m := range []BatchMetric{L1{}, L2{}, LInf{}} {
			want := m.Distance(q, o)
			m.DistanceMany(q, []Object{o}, out)
			if !sameBits(out[0], want) {
				t.Fatalf("%s: DistanceMany = %x, scalar = %x", m.Name(), math.Float64bits(out[0]), math.Float64bits(want))
			}
			m.DistanceFlat(q, o, 2, out)
			if !sameBits(out[0], want) {
				t.Fatalf("%s: DistanceFlat = %x, scalar = %x", m.Name(), math.Float64bits(out[0]), math.Float64bits(want))
			}
		}
	})
}

// FuzzWithinKernels fuzzes the stop contract of the six flat kernels (L1,
// L2², L∞, each over float64 and float32) with raw-bit coordinates,
// dimensions 0–100 — across the 4-wide groups and the stopStride windows
// — and a raw-bit stop, plus stops cut from the full value and the
// partials at each window's end (and their float neighbours). A result
// not above stop (within it, NaN, or against a NaN stop) must be the
// full result bit for bit; a result above stop must be a lower bound of
// a full result above stop, or come from a NaN one. The row "L1asm" is
// l1Kernel64, the float64 L1 body of every float64 L1 call (assembly on
// amd64; its float32 twin is the L1 row's): besides the contract, each
// of its results must be l1Kernel[float64]'s bit for bit, up to
// a NaN's payload (sameValue). The row "SAD" is sad, the narrowed
// mirror's filter (PSADBW on amd64), over the raw bytes cut into two
// rows of up to dim bytes each: it must match sadGo and the plain sum
// of absolute differences.
func FuzzWithinKernels(f *testing.F) {
	f.Add([]byte{}, uint8(33), int64(1), math.Float64bits(100))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F}, uint8(64), int64(2), math.Float64bits(math.Inf(1)))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0xF0, 0x7F, 0, 0, 0, 0, 0, 0, 0xF0, 0xFF}, uint8(100), int64(3), math.Float64bits(-1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F}, uint8(97), int64(4), math.Float64bits(math.NaN()))
	type kernel struct {
		name  string
		k64   func(x, y []float64, stop float64) float64
		k32   func(x, y []float32, stop float64) float64
		ref64 func(x, y []float64, stop float64) float64 // non-nil: k64 must match it
	}
	kernels := []kernel{
		{"L1", l1Kernel[float64], l1Kernel[float32], nil},
		{"L2sq", l2SqKernel[float64], l2SqKernel[float32], nil},
		{"Linf", linfKernel[float64], linfKernel[float32], nil},
		{"L1asm", l1Kernel64, l1Kernel[float32], l1Kernel[float64]},
	}
	f.Fuzz(func(t *testing.T, raw []byte, dim uint8, seed int64, stopBits uint64) {
		n := int(dim) % 101
		rng := rand.New(rand.NewSource(seed))
		c64 := make([]float64, 2*n)
		c32 := make([]float32, 2*n)
		for i := range c64 {
			if 8*(i+1) <= len(raw) {
				bits := binary.LittleEndian.Uint64(raw[8*i:])
				c64[i], c32[i] = math.Float64frombits(bits), math.Float32frombits(uint32(bits))
			} else {
				v := rng.NormFloat64() * 100
				c64[i], c32[i] = v, float32(v)
			}
		}
		check := func(name string, full, stop float64, within func(stop float64) float64) {
			switch got := within(stop); {
			case !(got > stop):
				if !sameBits(got, full) {
					t.Fatalf("%s dim %d stop %v: %x not above stop, full result %x", name, n, stop, math.Float64bits(got), math.Float64bits(full))
				}
			case !math.IsNaN(full) && !(full > stop && got <= full):
				t.Fatalf("%s dim %d stop %v: stopped at %v, full result %v", name, n, stop, got, full)
			}
		}
		for _, k := range kernels {
			x64, y64 := c64[:n], c64[n:]
			x32, y32 := c32[:n], c32[n:]
			full64 := k.k64(x64, y64, math.Inf(1))
			full32 := k.k32(x32, y32, math.Inf(1))
			stops := []float64{math.Float64frombits(stopBits)}
			for _, u := range []float64{0, 0.25, 0.5, 0.75, 1} {
				stops = append(stops, full64*u, full32*u)
			}
			// A window's partial is the full result over the prefix it ends.
			for end := stopStride; end <= n; end += stopStride {
				for _, p := range []float64{k.k64(x64[:end], y64[:end], math.Inf(1)), k.k32(x32[:end], y32[:end], math.Inf(1))} {
					stops = append(stops, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
				}
			}
			for _, stop := range stops {
				check(k.name+"/64", full64, stop, func(stop float64) float64 { return k.k64(x64, y64, stop) })
				check(k.name+"/32", full32, stop, func(stop float64) float64 { return k.k32(x32, y32, stop) })
				if k.ref64 == nil {
					continue
				}
				if got, want := k.k64(x64, y64, stop), k.ref64(x64, y64, stop); !sameValue(got, want) {
					t.Fatalf("%s dim %d stop %v: %x, reference %x", k.name, n, stop, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		m := min(2*n, len(raw)) / 2
		x8, y8 := raw[:m], raw[m:2*m]
		if got, gen, want := sad(x8, y8), sadGo(x8, y8), sadRef(x8, y8); got != want || gen != want {
			t.Fatalf("SAD over %d bytes: sad %d, sadGo %d, the plain sum %d", m, got, gen, want)
		}
	})
}

// sadRef is the plain sum of |x[i] − y[i]| over two byte rows.
func sadRef(x, y []uint8) uint64 {
	var s uint64
	for i := range x {
		s += uint64(max(x[i], y[i]) - min(x[i], y[i]))
	}
	return s
}

// TestSADAsmMatchesGeneric holds sad — the narrowed mirror's filter,
// the PSADBW body over the 16-byte groups on amd64 — and sadGo to the
// plain sum at every length 0–300, so each 16- and 32-byte step and
// every tail is crossed, on rows of uniform random bytes, of 0s against
// 255s (the largest sum a byte lane holds), and of every byte value
// against every other: row x holds 0…255 and y each of its 256
// rotations.
func TestSADAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	check := func(what string, x, y []uint8) {
		t.Helper()
		if got, gen, want := sad(x, y), sadGo(x, y), sadRef(x, y); got != want || gen != want {
			t.Fatalf("%s, %d bytes: sad %d, sadGo %d, the plain sum %d", what, len(x), got, gen, want)
		}
	}
	for n := 0; n <= 300; n++ {
		x, y := make([]uint8, n), make([]uint8, n)
		for i := range x {
			x[i], y[i] = uint8(rng.Intn(256)), uint8(rng.Intn(256))
		}
		check("random", x, y)
		for i := range x {
			x[i], y[i] = 0, 255
		}
		check("0 against 255", x, y)
		check("255 against 0", y, x)
	}
	all := make([]uint8, 256)
	for i := range all {
		all[i] = uint8(i)
	}
	for r := range all {
		rot := append(slices.Clone(all[r:]), all[:r]...)
		check("every byte pair", all, rot)
		check("every byte pair, at an odd offset", all[1:], rot[:255])
	}
}

// specialFloat draws a finite value of either sign, except one draw in
// special on average, which is a raw-bit special: a NaN of random
// payload and either sign (quiet or signalling), ±Inf, a subnormal or
// ±0, or a tiny value just above the subnormals.
func specialFloat(rng *rand.Rand, special int) float64 {
	if rng.Intn(special) != 0 {
		return rng.NormFloat64() * 100
	}
	sign := uint64(rng.Intn(2)) << 63
	switch rng.Intn(4) {
	case 0: // a NaN: any non-zero mantissa, quiet or signalling
		return math.Float64frombits(sign | 0x7FF0000000000000 | (rng.Uint64()&0x000FFFFFFFFFFFFF | 1))
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2: // a subnormal or ±0
		return math.Float64frombits(sign | rng.Uint64()&0x000FFFFFFFFFFFFF>>uint(rng.Intn(53)))
	}
	return math.Float64frombits(sign | uint64(rng.Intn(3))<<52 | rng.Uint64()&0x000FFFFFFFFFFFFF)
}

// TestL1KernelAsmMatchesGeneric holds l1Kernel64 — the float64 L1 body
// every float64 L1 call site runs, in assembly on amd64 — to
// l1Kernel[float64], bit for bit (under -race up to a NaN's
// payload, see sameValue): every dim 0–300, so every 4-wide group
// and 32-wide window boundary is crossed; coordinates mixing finite
// values with NaNs of random payload and both signs (quiet and
// signalling), ±Inf, ±0 and subnormals, several NaNs meeting in one
// lane; stops NaN, ±Inf, −1, 0, cuts of the full value, and each
// window's partial with its float neighbours, so every stop is taken
// and missed at each window's end.
func TestL1KernelAsmMatchesGeneric(t *testing.T) {
	same := sameBits
	if raceBuild() {
		same = sameValue
	}
	rng := rand.New(rand.NewSource(42))
	coord := func(special int) float64 { return specialFloat(rng, special) }
	for dim := 0; dim <= 300; dim++ {
		// From (almost) no specials to one coordinate in two, where NaNs
		// of different payloads meet in one lane.
		for _, special := range []int{1 << 30, 40, 8, 2} {
			x, y := make([]float64, dim), make([]float64, dim)
			for i := range x {
				x[i], y[i] = coord(special), coord(special)
			}
			full := l1Kernel(x, y, math.Inf(1))
			stops := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, full, full / 2}
			for end := stopStride; end <= dim; end += stopStride {
				p := l1Kernel(x[:end], y[:end], math.Inf(1))
				stops = append(stops, p, math.Nextafter(p, math.Inf(-1)), math.Nextafter(p, math.Inf(1)))
			}
			for _, stop := range stops {
				if got, want := l1Kernel64(x, y, stop), l1Kernel(x, y, stop); !same(got, want) {
					t.Fatalf("dim %d stop %v (1 in %d special): l1Kernel64 = %x, the generic body = %x",
						dim, stop, special, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
