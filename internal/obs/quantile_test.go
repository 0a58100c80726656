package obs_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"metricindex/internal/exec"
	"metricindex/internal/obs"
)

func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{1, 2, 4, 8}
	cases := []struct {
		name   string
		obs    []float64
		q      float64
		lo, hi float64 // the estimate must lie in [lo, hi]
	}{
		{"empty", nil, 0.5, 0, 0},
		{"one bucket p50", []float64{3, 3, 3, 3}, 0.5, 2, 4},
		{"one bucket p99", []float64{3, 3, 3, 3}, 0.99, 2, 4},
		{"first bucket starts at zero", []float64{0.5, 0.5}, 0.5, 0, 1},
		{"interpolates", []float64{1.5, 1.5, 3, 3}, 0.75, 3, 3}, // rank 3 of 4: halfway through (2,4]
		{"+Inf reports the top bound", []float64{100, 200}, 0.5, 8, 8},
		{"q=0 with an empty first bucket", []float64{3}, 0, 0, 0},
	}
	for _, c := range cases {
		h := obs.NewRegistry().Histogram("mx_test_q", "", bounds)
		for _, v := range c.obs {
			h.Observe(v)
		}
		if got := h.Quantile(c.q); got < c.lo || got > c.hi {
			t.Errorf("%s: Quantile(%v) = %v, want in [%v, %v]", c.name, c.q, got, c.lo, c.hi)
		}
	}

	// Monotone in q.
	h := obs.NewRegistry().Histogram("mx_test_q", "", bounds)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		h.Observe(10 * rng.Float64())
	}
	prev := h.Quantile(0)
	for q := 0.01; q <= 1; q += 0.01 {
		cur := h.Quantile(q)
		if cur < prev {
			t.Fatalf("Quantile(%v) = %v < Quantile(%v) = %v", q, cur, q-0.01, prev)
		}
		prev = cur
	}
}

// TestQuantileNearExactPercentiles: on samples inside the ladder the
// bucket estimate and exec.LatencyPercentiles (the exact nearest-rank
// definition batch stats use) pick the same bucket, so they differ by
// less than that bucket's width.
func TestQuantileNearExactPercentiles(t *testing.T) {
	ladder := obs.DefLatencyBuckets
	width := func(v float64) float64 {
		lo := 0.0
		for _, b := range ladder {
			if v <= b {
				return b - lo
			}
			lo = b
		}
		t.Fatalf("sample %v above the ladder", v)
		return 0
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := obs.NewRegistry().Histogram("mx_test_lat", "", ladder)
		durs := make([]time.Duration, 1+rng.Intn(2000))
		for i := range durs {
			// Log-uniform over 1µs..10s: every bucket gets mass.
			durs[i] = time.Duration(float64(time.Microsecond) * math.Pow(10, 7*rng.Float64()))
			h.Observe(durs[i].Seconds())
		}
		p50, p95, p99 := exec.LatencyPercentiles(durs)
		for _, c := range []struct {
			q     float64
			exact time.Duration
		}{{0.50, p50}, {0.95, p95}, {0.99, p99}} {
			est, exact := h.Quantile(c.q), c.exact.Seconds()
			if d := est - exact; d > width(exact) || -d > width(exact) {
				t.Fatalf("seed %d n=%d q=%v: estimate %v, exact %v, bucket width %v",
					seed, len(durs), c.q, est, exact, width(exact))
			}
		}
	}
}
