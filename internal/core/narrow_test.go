package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestNarrowedMirrorChoice pins which mirrors narrow: float64 Vector rows
// of any width under L1, and nothing else.
func TestNarrowedMirrorChoice(t *testing.T) {
	for _, c := range []struct {
		name   string
		m      Metric
		sample Object
		want   bool
	}{
		{"L1 2-D", L1{}, make(Vector, 2), true},
		{"L1 282-D", L1{}, make(Vector, 282), true},
		{"L2 2-D", L2{}, make(Vector, 2), false},
		{"L2 282-D", L2{}, make(Vector, 282), false},
		{"LInf 282-D", LInf{}, make(Vector, 282), false},
		{"L1 282-D IntVector", L1{}, make(IntVector, 282), false},
		{"L1 282-D Vector32", L1{}, make(Vector32, 282), false},
	} {
		if got := NewFlatVecs(c.m, []Object{c.sample}).Narrowed(); got != c.want {
			t.Errorf("%s: narrowed = %v, want %v", c.name, got, c.want)
		}
	}
	if NewFlatVecs(L1{}, nil) != nil || NewFlatVecs(L1{}, []Object{Word("w")}) != nil || NewFlatVecs(L1{}, []Object{Vector{}}) != nil {
		t.Error("a mirror was built from an empty fill, a Word or a 0-D Vector")
	}
	for _, c := range []struct{ dim, stride int }{{1, 16}, {16, 16}, {20, 32}, {282, 288}} {
		f := NewFlatVecs(L1{}, []Object{make(Vector, c.dim)})
		f.Append(make(Vector, c.dim))
		if got, want := f.MemBytes(), int64(c.stride+8); got != want {
			t.Errorf("%d-D narrowed MemBytes = %d, want %d: the row's codes padded to 16 bytes and its error", c.dim, got, want)
		}
	}
}

// TestNarrowedGrid pins the grid a fill fits: Color's coordinates in
// [−255, 255] take step 2 from −256, so each is within 1 of its code's
// value; a constant or a single row fits a grid that codes it; values
// past gridReach and non-finite ones are left out of the fit.
func TestNarrowedGrid(t *testing.T) {
	for _, c := range []struct {
		name     string
		fill     []Object
		lo, step float64
	}{
		{"Color range", []Object{Vector{-255, 3}, Vector{255, -1}}, -256, 2},
		{"unit range", []Object{Vector{0, 1}}, 0, 1.0 / 128},
		{"constant 0", []Object{Vector{0, 0}, Vector{0, 0}}, 0, 0x1p-1022},
		{"constant 3", []Object{Vector{3, 3}}, 3, 0x1p-49},
		{"no finite coordinate", []Object{Vector{math.NaN(), math.Inf(1)}}, 0, 0x1p-1022},
		{"past the reach", []Object{Vector{-math.MaxFloat64, math.MaxFloat64}}, -0x1p1000, 0x1p994},
		{"other widths ignored", []Object{Vector{1, 2}, Vector{-1e9}, Vector32{-1e9, 1e9}}, 1, 0x1p-7},
	} {
		f := NewFlatVecs(L1{}, c.fill)
		if f.grid.lo != c.lo || f.grid.step != c.step {
			t.Errorf("%s: grid (lo %v, step %v), want (%v, %v)", c.name, f.grid.lo, f.grid.step, c.lo, c.step)
		}
		// Every value the grid stands for is exact: a multiple of step
		// below 2⁵³ steps.
		if m := f.grid.lo / f.grid.step; m != math.Trunc(m) || math.Abs(m)+255 >= 0x1p53 {
			t.Errorf("%s: lo is %v steps", c.name, m)
		}
		for _, o := range c.fill {
			if v, ok := o.(Vector); ok && len(v) == f.Dim {
				for _, x := range v {
					err := math.Abs(x - (f.grid.lo + f.grid.code(x)*f.grid.step))
					if !math.IsInf(x, 0) && !math.IsNaN(x) && math.Abs(x) <= gridReach && !(err <= f.grid.step/2) {
						t.Errorf("%s: %v codes with error %v, step %v", c.name, x, err, f.grid.step)
					}
				}
			}
		}
	}
}

// TestNarrowedRejectsOnlyAbove is the narrowed mirror's safety property:
// the codes' lower test (Bounds, then Above) never rejects a row whose
// exact pre-distance — Pre64 on the float64 coordinates the row was
// coded from — is not above the bound.
// Grids come from ordinary rows, from a single row, from constant rows
// and from rows holding extreme values, so later rows are clamped far
// outside the grid. Rows and queries mix ordinary coordinates with NaN,
// ±Inf, subnormals, values past math.MaxFloat32 and near
// math.MaxFloat64; the radii include each pair's exact distance and its
// float neighbours, a relative hair either side, 0, negative ones, NaN
// and ±Inf. A query holding a NaN or an infinity must not code; the rest
// that code are asked about every row.
func TestNarrowedRejectsOnlyAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k, _ := PreKernelFor(L1{})
	wild := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, 3e-42, 4e38, -1e300,
		math.MaxFloat32, -math.MaxFloat32 * (1 + 0x1p-30), 1e307}
	vec := func(dim, special int, scale float64) Vector {
		v := make(Vector, dim)
		for i := range v {
			switch {
			case rng.Intn(special) == 0:
				v[i] = wild[rng.Intn(len(wild))]
			case rng.Intn(3) == 0:
				v[i] = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // any finite magnitude below 2
			default:
				v[i] = rng.NormFloat64() * scale
			}
		}
		return v
	}
	const ordinary = 1 << 30
	rejected, queried := 0, 0
	// One scratch across the widths, a wide one before narrower ones, so
	// a query's padding is coded over the codes of a wider query.
	var sc Scratch
	for _, dim := range []int{9, 282, 31, 100, 64} {
		// The fits: many ordinary rows, one row, constant rows, a range
		// much narrower than the rows' (they clamp), and rows with
		// extremes, which widen the grid past everything else.
		constant := make(Vector, dim)
		for i := range constant {
			constant[i] = 7
		}
		fits := [][]Object{
			{vec(dim, ordinary, 100), vec(dim, ordinary, 100), vec(dim, ordinary, 100)},
			{vec(dim, ordinary, 100)},
			{constant, constant},
			{vec(dim, ordinary, 0.01)},
			{vec(dim, 5, 100)},
		}
		for fi, fit := range fits {
			for _, special := range []int{ordinary, 200, 20} {
				var rows []Vector
				f := NewFlatVecs(L1{}, fit)
				for i := 0; i < 40; i++ {
					v := vec(dim, special, 100)
					if i == 0 {
						v = constant
					}
					rows = append(rows, v)
					if !f.Append(v) {
						t.Fatal("Append refused a Vector row")
					}
				}
				// Queries: fresh vectors, the rows themselves (exact distance
				// 0, the codes' bound their coding errors) and rows nudged by
				// an ulp.
				queries := rows[:10:10]
				for i := 0; i < 10; i++ {
					queries = append(queries, vec(dim, special, 100))
					q := rows[i+10].Clone()
					for j := range q {
						q[j] = math.Nextafter(q[j], math.Inf(1-2*(j%2)))
					}
					queries = append(queries, q)
				}
				for _, q := range queries {
					finite := true
					for _, x := range q {
						finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
					}
					qc, eq, ok := f.Code(q, &sc)
					if ok && !finite {
						t.Fatalf("dim %d fit %d: a query holding a NaN or an infinity coded", dim, fi)
					}
					if !ok {
						continue
					}
					if len(qc) != f.rowBytes || slices.ContainsFunc(qc[dim:], func(c uint8) bool { return c != 0 }) {
						t.Fatalf("dim %d fit %d: query codes %v not padded with zeros to %d", dim, fi, qc, f.rowBytes)
					}
					queried++
					for row, x := range rows {
						d := k.Pre64(q, x, math.Inf(1))
						radii := []float64{d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)),
							d * (1 + 1e-15), d * (1 - 1e-15), d / 2, 0, -1, -d, math.NaN(), math.Inf(1), math.Inf(-1)}
						for _, r := range radii {
							bound := k.Bound(r)
							if sd, e := f.Bounds(qc, eq, row); !f.Above(sd, e, bound) {
								continue
							}
							if rejected++; !(k.Pre64(q, x, bound) > bound) {
								t.Fatalf("dim %d fit %d row %d radius %v: rejected, exact pre-distance %v is within bound %v",
									dim, fi, row, r, d, bound)
							}
						}
					}
				}
			}
		}
	}
	if rejected == 0 || queried == 0 {
		t.Fatalf("Above rejected %d rows over %d coded queries: the property was never exercised", rejected, queried)
	}
}

// TestNarrowedHoldsAndSwapDelete checks that a narrowed row holds what
// Set coded of its object — codes, zero padding and error — and no
// other object, through a swap-delete that moves the last row.
func TestNarrowedHoldsAndSwapDelete(t *testing.T) {
	rows := []Vector{{1, 2, 3}, {-4, 5.5, math.NaN()}, {1e300, 0, -7}}
	f := NewFlatVecs(L1{}, []Object{rows[0]})
	for _, v := range rows {
		f.Append(v)
	}
	if !math.IsInf(f.errs[1], 1) || math.IsInf(f.errs[0], 1) || !(f.errs[2] > 1e299) {
		t.Fatalf("coding errors %v: want finite, +Inf (a NaN coordinate), and the clamp of 1e300", f.errs)
	}
	f.SwapDelete(0)
	if f.Rows() != 2 || !f.Holds(0, rows[2], nil) || !f.Holds(1, rows[1], nil) || f.Holds(0, rows[0], nil) {
		t.Fatal("after SwapDelete(0) the rows do not hold rows 2 and 1")
	}
}

// TestNarrowedMarginWitnesses builds rows on which each margin of the
// codes' bounds is load-bearing. On a coarse grid (fitted to ±2⁶⁰, step
// 2⁵⁴), a 282-D query and row are placed so that the triangle
// inequality of every coordinate is an equality — q̂ ≤ q ≤ x ≤ x̂ for
// the lower bound, q ≤ q̂ ≤ x̂ ≤ x for the upper, with q̂ and x̂ the
// values of their codes — so the exact D is exactly sd − e or sd + e,
// and only roundings separate the computed D from it. Where they put
// the bound on the wrong side of the computed D, only the margin keeps
// Above from rejecting the row at bound D, and Upper from falling below
// D. The test fails unless both kinds of witness occur, so removing
// either margin fails it.
func TestNarrowedMarginWitnesses(t *testing.T) {
	const dim, rows = 282, 400
	rng := rand.New(rand.NewSource(24))
	k, _ := PreKernelFor(L1{})
	fit := make(Vector, dim)
	fit[0], fit[1] = -0x1p60, 0x1p60
	f := NewFlatVecs(L1{}, []Object{fit})
	if f.grid.lo != -0x1p60 || f.grid.step != 0x1p54 {
		t.Fatalf("grid (lo %v, step %v), want (-2⁶⁰, 2⁵⁴)", f.grid.lo, f.grid.step)
	}
	value := func(c int) float64 { return f.grid.lo + float64(c)*f.grid.step }
	var sc Scratch
	lowerWitnesses, upperWitnesses := 0, 0
	for i := 0; i < 2*rows; i++ {
		upper := i%2 == 1
		q, x := make(Vector, dim), make(Vector, dim)
		for j := range q {
			cq := 1 + rng.Intn(200)
			cx := cq + 1 + rng.Intn(254-cq)
			a, b := rng.Float64()*0.49*f.grid.step, rng.Float64()*0.49*f.grid.step
			if upper {
				q[j], x[j] = value(cq)-a, value(cx)+b
			} else {
				q[j], x[j] = value(cq)+a, value(cx)-b
			}
		}
		if !f.Append(x) {
			t.Fatal("Append refused a Vector row")
		}
		qc, eq, ok := f.Code(q, &sc)
		if !ok {
			t.Fatal("a finite query did not code")
		}
		sd, e := f.Bounds(qc, eq, i)
		d := k.Pre64(q, x, math.Inf(1))
		if upper {
			if d > sd+e {
				upperWitnesses++
			}
			if u := f.Upper(sd, e); !(u >= d) {
				t.Fatalf("row %d: upper bound %v below the computed distance %v", i, u, d)
			}
			continue
		}
		if sd > d+e {
			lowerWitnesses++
		}
		if f.Above(sd, e, d) {
			t.Fatalf("row %d: rejected at bound %v, its computed distance (sd %v, e %v)", i, d, sd, e)
		}
	}
	t.Logf("%d lower and %d upper witnesses of %d rows each", lowerWitnesses, upperWitnesses, rows)
	if lowerWitnesses == 0 || upperWitnesses == 0 {
		t.Fatalf("%d lower and %d upper witnesses: a margin is not load-bearing here", lowerWitnesses, upperWitnesses)
	}
}

// FuzzCodeBounds is the two-sided property of the codes' bounds on
// random rows and queries: the lower test (Above) never rejects a row
// whose computed L1 distance — Pre64 over the float64 coordinates the
// row was coded from — is within the bound, and the upper bound (Upper)
// is never below the computed distance. Coordinates come from the raw
// input's float64 bits (so NaN, ±Inf, subnormals and any magnitude)
// and from normals at a scale the seed picks; the grid is fitted to the
// first row or to a narrower copy of it, so other rows and the query
// clamp far outside it. A query that does not code is skipped; a row at
// a NaN distance must have E = +Inf.
func FuzzCodeBounds(f *testing.F) {
	f.Add([]byte{}, uint8(33), int64(1), math.Float64bits(100))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF8, 0x7F, 1, 0, 0, 0, 0, 0, 0, 0}, uint8(64), int64(2), math.Float64bits(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F, 0, 0, 0, 0, 0, 0, 0xF0, 0xFF}, uint8(97), int64(3), math.Float64bits(-1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xB0, 0x43, 0, 0, 0, 0, 0, 0, 0xB0, 0xC3}, uint8(200), int64(4), math.Float64bits(1e18))
	k, _ := PreKernelFor(L1{})
	f.Fuzz(func(t *testing.T, raw []byte, dimByte uint8, seed int64, boundBits uint64) {
		const nrows = 6
		dim := 1 + int(dimByte)%300
		rng := rand.New(rand.NewSource(seed))
		scale := math.Ldexp(1, rng.Intn(2098)-1075) // subnormal to 2¹⁰²²
		vecs := make([]Vector, nrows+1)             // the rows, then the query
		at := 0
		for i := range vecs {
			vecs[i] = make(Vector, dim)
			for j := range vecs[i] {
				if at+8 <= len(raw) {
					vecs[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[at:]))
					at += 8
				} else {
					vecs[i][j] = rng.NormFloat64() * scale
				}
			}
		}
		fit := vecs[0]
		if seed%2 == 0 {
			fit = fit.Clone()
			for j := range fit {
				fit[j] /= 1 << 20
			}
		}
		m := NewFlatVecs(L1{}, []Object{fit})
		for _, v := range vecs[:nrows] {
			if !m.Append(v) {
				t.Fatal("Append refused a Vector row")
			}
		}
		q := vecs[nrows]
		var sc Scratch
		qc, eq, ok := m.Code(q, &sc)
		if !ok {
			return
		}
		for row, x := range vecs[:nrows] {
			sd, e := m.Bounds(qc, eq, row)
			d := k.Pre64(q, x, math.Inf(1))
			if math.IsNaN(d) {
				if !math.IsInf(e, 1) {
					t.Fatalf("dim %d row %d: distance NaN with finite error sum %v", dim, row, e)
				}
			} else if u := m.Upper(sd, e); !(u >= d) {
				t.Fatalf("dim %d row %d: upper bound %v below the computed distance %v (sd %v, e %v)", dim, row, u, d, sd, e)
			}
			for _, bound := range []float64{d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1)),
				d * (1 - 0x1p-40), d / 2, 0, math.Float64frombits(boundBits), math.Inf(1), math.NaN()} {
				if m.Above(sd, e, bound) && !(d > bound) {
					t.Fatalf("dim %d row %d: rejected at bound %v, computed distance %v (sd %v, e %v)", dim, row, bound, d, sd, e)
				}
			}
		}
	})
}
