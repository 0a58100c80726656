package obs_test

import (
	"testing"

	"metricindex/internal/obs"
	"metricindex/internal/testutil"
)

// TestIncrementAllocs is the runtime witness for the noalloc
// annotations on the increment paths: counter/gauge updates and
// histogram observations run per request, per shard probe, and per WAL
// append, and must stay allocation-free.
func TestIncrementAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	r := obs.NewRegistry()
	c := r.Counter("mx_test_ops_total", "")
	g := r.Gauge("mx_test_depth", "")
	h := r.Histogram("mx_test_seconds", "", obs.DefLatencyBuckets)

	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
	}); allocs != 0 {
		t.Fatalf("counter update allocated %.1f times; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		g.Set(5)
		g.Add(-1)
	}); allocs != 0 {
		t.Fatalf("gauge update allocated %.1f times; want 0", allocs)
	}
	v := 0.0003
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		h.Observe(42) // +Inf bucket: full scan, still no alloc
	}); allocs != 0 {
		t.Fatalf("histogram observe allocated %.1f times; want 0", allocs)
	}
}
