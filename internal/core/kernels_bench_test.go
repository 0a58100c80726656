package core

import (
	"math"
	"math/rand"
	"testing"
)

// Benchmark fixtures: one query against a block of rows, the shape every
// pivot table's hot loop takes. benchDim is low like the LA workload's
// vectors; benchRows is large enough that per-call overhead
// (interface dispatch, bounds checks) is visible next to the arithmetic.
const (
	benchDim  = 4
	benchRows = 1024
)

func benchVectors(b *testing.B) (Vector, []Object, []float64, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	q := make(Vector, benchDim)
	for d := range q {
		q[d] = rng.Float64() * 100
	}
	objs := make([]Object, benchRows)
	flat := make([]float64, benchRows*benchDim)
	for i := range objs {
		v := make(Vector, benchDim)
		for d := range v {
			v[d] = rng.Float64() * 100
		}
		objs[i] = v
		copy(flat[i*benchDim:], v)
	}
	return q, objs, flat, benchDim
}

// BenchmarkL2Scalar is the pairwise loop every index used before the
// batch API: one interface call and one dim check per row.
func BenchmarkL2Scalar(b *testing.B) {
	q, objs, _, _ := benchVectors(b)
	out := make([]float64, len(objs))
	var m Metric = L2{}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, o := range objs {
			out[i] = m.Distance(q, o)
		}
	}
	sinkFloats(b, out)
}

// BenchmarkL2Rows is DistanceMany over the same rows: one interface call
// and one dim check per batch, but still a pointer chase per row.
func BenchmarkL2Rows(b *testing.B) {
	q, objs, _, _ := benchVectors(b)
	out := make([]float64, len(objs))
	bm := BatchMetric(L2{})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bm.DistanceMany(q, objs, out)
	}
	sinkFloats(b, out)
}

// BenchmarkL2Flat is DistanceFlat over one contiguous row-major block —
// the struct-of-arrays fast path the flat pivot tables ride.
func BenchmarkL2Flat(b *testing.B) {
	q, _, flat, dim := benchVectors(b)
	out := make([]float64, benchRows)
	bm := BatchMetric(L2{})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bm.DistanceFlat(q, flat, dim, out)
	}
	sinkFloats(b, out)
}

// BenchmarkL2Flat32 is the float32 kernel over a widened query: half the
// memory traffic per row at the same answer precision contract.
func BenchmarkL2Flat32(b *testing.B) {
	q, _, flat, dim := benchVectors(b)
	q32 := make([]float32, len(q))
	flat32 := make([]float32, len(flat))
	for i, x := range q {
		q32[i] = float32(x)
	}
	for i, x := range flat {
		flat32[i] = float32(x)
	}
	out := make([]float64, benchRows)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for row := 0; row < benchRows; row++ {
			out[row] = math.Sqrt(l2SqKernel(q32, flat32[row*dim:(row+1)*dim], math.Inf(1)))
		}
	}
	sinkFloats(b, out)
}

// lpPowReference is the pre-fast-path Lp implementation: math.Pow per
// coordinate plus the final root, for any order. Kept verbatim as the
// "before" half of the Lp benchmark pair.
func lpPowReference(p float64, x, y Vector) float64 {
	var s float64
	for i := range x {
		s += math.Pow(math.Abs(x[i]-y[i]), p)
	}
	return math.Pow(s, 1/p)
}

// BenchmarkLpPowFallback measures the generic math.Pow path at order 2 —
// what Lp{P: 2}.Distance cost before the integer-order fast paths.
func BenchmarkLpPowFallback(b *testing.B) {
	q, objs, _, _ := benchVectors(b)
	out := make([]float64, len(objs))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, o := range objs {
			out[i] = lpPowReference(2, q, o.(Vector))
		}
	}
	sinkFloats(b, out)
}

// BenchmarkLpIntegerFastPath measures Lp{P: 2}.Distance with the
// multiplication fast path and hoisted root — the "after" half.
func BenchmarkLpIntegerFastPath(b *testing.B) {
	q, objs, _, _ := benchVectors(b)
	out := make([]float64, len(objs))
	m := Lp{P: 2}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, o := range objs {
			out[i] = m.Distance(q, o)
		}
	}
	sinkFloats(b, out)
}

// sinkFloats defeats dead-code elimination of the benchmark results.
func sinkFloats(b *testing.B, out []float64) {
	b.Helper()
	var s float64
	for _, x := range out {
		s += x
	}
	if math.IsNaN(s) {
		b.Fatal("NaN in benchmark output")
	}
}

// BenchmarkL1Within times one L1 kernel call on a 282-D row (the Color
// workload's width), with the rows hot in cache (64 rows, cycled) and
// cold (50 000 rows visited in a permuted order, as a table's verified
// candidates are), at stop = +Inf — a full distance — and at a stop half
// the mean distance, which a uniform row passes about mid-row; each for
// the generic body and for l1Kernel64, the body float64 rows run. The
// "sad" body is the narrowed mirror's filter over the same rows coded
// on their grid: sad over the 288-byte padded codes, which reads the
// whole row whatever the stop.
func BenchmarkL1Within(b *testing.B) {
	const dim = 282
	rng := rand.New(rand.NewSource(42))
	q := make(Vector, dim)
	for d := range q {
		q[d] = rng.Float64() * 100
	}
	for _, set := range []struct {
		name string
		rows int
	}{{"hot", 64}, {"cold", 50000}} {
		flat := make([]float64, set.rows*dim)
		for i := range flat {
			flat[i] = rng.Float64() * 100
		}
		f := NewFlatVecs(L1{}, []Object{q})
		for row := 0; row < set.rows; row++ {
			f.Append(Vector(flat[row*dim : (row+1)*dim]))
		}
		var sc Scratch
		qc, _, _ := f.Code(q, &sc)
		order := rng.Perm(set.rows)
		var mean float64
		for row := 0; row < set.rows; row++ {
			mean += l1Kernel(q, flat[row*dim:(row+1)*dim], math.Inf(1)) / float64(set.rows)
		}
		for _, st := range []struct {
			name string
			stop float64
		}{{"inf", math.Inf(1)}, {"mid", mean / 2}} {
			for _, body := range []struct {
				name string
				k    func(row int, stop float64) float64
			}{
				{"generic", func(row int, stop float64) float64 { return l1Kernel(q, flat[row*dim:(row+1)*dim], stop) }},
				{"l1Kernel64", func(row int, stop float64) float64 { return l1Kernel64(q, flat[row*dim:(row+1)*dim], stop) }},
				{"sad", func(row int, _ float64) float64 {
					return float64(sad(qc, f.codes[row*f.rowBytes:(row+1)*f.rowBytes]))
				}},
			} {
				b.Run(set.name+"/"+st.name+"/"+body.name, func(b *testing.B) {
					var s float64
					for n := 0; n < b.N; n++ {
						s += body.k(order[n%len(order)], st.stop)
					}
					sinkFloats(b, []float64{s})
				})
			}
		}
	}
}
