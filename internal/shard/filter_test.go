package shard

import (
	"testing"

	"metricindex/internal/plan"
	"metricindex/internal/testutil"
)

// TestShardedFilterEquivalence runs the shared filtered-search harness
// over a sharded front. The accept closure evaluates against the
// *parent* dataset's attribute bags while the candidates surface from
// per-shard mirrors, so this is the test that the scatter-gather keeps
// identifiers aligned with the bags. The front pushes down exactly as
// far as its shards do: over LAESA shards every scan takes the accept
// test after its zone pruning, over MVPT or SPB-tree shards each shard
// post-filters, so the planner must not see a probe-capable index.
func TestShardedFilterEquivalence(t *testing.T) {
	for _, b := range builders() {
		for _, ed := range testutil.EquivDatasets(false, 250, 7) {
			sharded, err := New(ed.DS, b.build, Options{Shards: 3})
			if err != nil {
				t.Fatalf("%s/%s: New: %v", b.name, ed.Name, err)
			}
			want := plan.PushdownNone
			if b.name == "LAESA" {
				want = plan.PushdownPruned
			}
			if got := plan.PushdownOf(sharded); got != want {
				t.Fatalf("%s/%s: plan.PushdownOf = %d, want %d", b.name, ed.Name, got, want)
			}
			if got := plan.Capable(sharded); got != (b.name == "LAESA") {
				t.Fatalf("%s/%s: plan.Capable = %v over %s shards", b.name, ed.Name, got, b.name)
			}
			testutil.CheckFilterEquivalence(t, ed, sharded)
		}
	}
}
