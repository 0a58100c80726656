package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestNarrowedMirrorChoice pins which mirrors narrow: float64 Vector rows
// of any width under a metric with a widening kernel (L1), and nothing
// else.
func TestNarrowedMirrorChoice(t *testing.T) {
	l1, _ := PreKernelFor(L1{})
	l2, _ := PreKernelFor(L2{})
	for _, c := range []struct {
		name   string
		sample Object
		k      PreKernel
		want   bool
	}{
		{"L1 2-D", make(Vector, 2), l1, true},
		{"L1 282-D", make(Vector, 282), l1, true},
		{"L2 2-D", make(Vector, 2), l2, false},
		{"L2 282-D", make(Vector, 282), l2, false},
		{"L1 282-D IntVector", make(IntVector, 282), l1, false},
		{"L1 282-D Vector32", make(Vector32, 282), l1, false},
	} {
		if got := NewFlatVecs(c.sample, &c.k).Narrowed(); got != c.want {
			t.Errorf("%s: narrowed = %v, want %v", c.name, got, c.want)
		}
	}
	f := NewFlatVecs(make(Vector, 20), &l1)
	f.Append(make(Vector, 20))
	if got, want := f.MemBytes(), int64(20*4+8); got != want {
		t.Errorf("narrowed MemBytes = %d, want %d: the float32 row and its bound", got, want)
	}
}

// TestNarrowedRejectsOnlyAbove is the narrowed mirror's safety property:
// Rejects never rejects a row whose exact pre-distance — Pre64 on the
// float64 coordinates the row was narrowed from — is not above the
// bound. Rows and queries mix ordinary coordinates with NaN, ±Inf,
// subnormals, values past math.MaxFloat32 and near math.MaxFloat64; the
// radii include each pair's exact distance and its float neighbours, a
// relative hair either side, 0, negative ones, NaN and ±Inf. Queries
// holding a NaN or an infinity must not pass Filters; the rest are
// asked about every row.
func TestNarrowedRejectsOnlyAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	k, _ := PreKernelFor(L1{})
	wild := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310, 3e-42, 4e38, -1e300,
		math.MaxFloat32, -math.MaxFloat32 * (1 + 0x1p-30), 1e307}
	vec := func(dim, special int) Vector {
		v := make(Vector, dim)
		for i := range v {
			switch {
			case rng.Intn(special) == 0:
				v[i] = wild[rng.Intn(len(wild))]
			case rng.Intn(3) == 0:
				v[i] = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // any finite magnitude below 2
			default:
				v[i] = rng.NormFloat64() * 100
			}
		}
		return v
	}
	rejected := 0
	for _, dim := range []int{9, 31, 64, 100, 282} {
		for _, special := range []int{1 << 30, 200, 20} {
			var rows []Vector
			f := NewFlatVecs(make(Vector, dim), &k)
			for i := 0; i < 40; i++ {
				v := vec(dim, special)
				rows = append(rows, v)
				if !f.Append(v) {
					t.Fatal("Append refused a Vector row")
				}
			}
			// Queries: fresh vectors, the rows themselves (exact distance 0,
			// narrowed distance their rounding error) and rows nudged by an
			// ulp.
			queries := rows[:10:10]
			for i := 0; i < 10; i++ {
				queries = append(queries, vec(dim, special))
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
				if f.Filters(q) != finite {
					t.Fatalf("dim %d: Filters = %v on a query finite = %v", dim, !finite, finite)
				}
				if !finite {
					continue
				}
				for row, x := range rows {
					d := k.Pre64(q, x, math.Inf(1))
					radii := []float64{d, math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1)),
						d * (1 + 1e-15), d * (1 - 1e-15), 0, -1, -d, math.NaN(), math.Inf(1), math.Inf(-1)}
					for _, r := range radii {
						bound := k.Bound(r)
						if !f.Rejects(&k, q, row, bound) {
							continue
						}
						if rejected++; !(k.Pre64(q, x, bound) > bound) {
							t.Fatalf("dim %d row %d radius %v: rejected, exact pre-distance %v is within bound %v",
								dim, row, r, d, bound)
						}
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("Rejects rejected nothing: the property was never exercised")
	}
}
