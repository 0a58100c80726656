package shard

import (
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// subBuilder names one per-shard index constructor; the same function
// builds the unsharded reference when handed the parent dataset.
type subBuilder struct {
	name  string
	build Builder
}

// builders covers one table, one tree, and one disk index — the three
// storage families the sharded front must be transparent over.
func builders() []subBuilder {
	pivotsFor := func(sub *core.Dataset) ([]int, error) {
		return pivot.HFI(sub, 4, pivot.Options{Seed: 3})
	}
	return []subBuilder{
		{"LAESA", func(sub *core.Dataset) (core.Index, error) {
			pv, err := pivotsFor(sub)
			if err != nil {
				return nil, err
			}
			return table.NewLAESA(sub, pv)
		}},
		{"MVPT", func(sub *core.Dataset) (core.Index, error) {
			pv, err := pivotsFor(sub)
			if err != nil {
				return nil, err
			}
			return ptree.NewMVPT(sub, pv, ptree.Options{})
		}},
		{"SPB-tree", func(sub *core.Dataset) (core.Index, error) {
			pv, err := pivotsFor(sub)
			if err != nil {
				return nil, err
			}
			return spb.New(sub, store.NewPager(0), pv, spb.Options{MaxDistance: 200})
		}},
	}
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameNeighbors(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

// checkIdentical asserts the sharded index returns byte-for-byte the same
// MRQ and MkNNQ answers as the unsharded reference — including ids on
// distance ties, which the sparse-mirror design guarantees.
func checkIdentical(t *testing.T, sharded, flat core.Index, ds *core.Dataset, seed int64) {
	t.Helper()
	for qs := seed; qs < seed+4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			want, err := flat.RangeSearch(q, r)
			if err != nil {
				t.Fatalf("flat RangeSearch: %v", err)
			}
			got, err := sharded.RangeSearch(q, r)
			if err != nil {
				t.Fatalf("sharded RangeSearch: %v", err)
			}
			if !sameIDs(got, want) {
				t.Fatalf("MRQ(r=%v) differs:\nsharded %v\nflat    %v", r, got, want)
			}
		}
		for _, k := range []int{0, 1, 7, 40, 1000} {
			want, err := flat.KNNSearch(q, k)
			if err != nil {
				t.Fatalf("flat KNNSearch: %v", err)
			}
			got, err := sharded.KNNSearch(q, k)
			if err != nil {
				t.Fatalf("sharded KNNSearch: %v", err)
			}
			if !sameNeighbors(got, want) {
				t.Fatalf("MkNNQ(k=%d) differs:\nsharded %v\nflat    %v", k, got, want)
			}
		}
	}
}

func TestShardedMatchesUnsharded(t *testing.T) {
	for _, b := range builders() {
		for _, part := range []Partitioner{RoundRobin{}, Hash{}} {
			for _, shards := range []int{1, 3, 8} {
				name := fmt.Sprintf("%s/%s/%d", b.name, part.Name(), shards)
				t.Run(name, func(t *testing.T) {
					ds := testutil.VectorDataset(240, 4, 100, core.L2{}, 11)
					flat, err := b.build(ds)
					if err != nil {
						t.Fatalf("flat build: %v", err)
					}
					sharded, err := New(ds, b.build, Options{Shards: shards, Partitioner: part})
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					if got := sharded.NumShards(); got != shards {
						t.Fatalf("NumShards = %d, want %d", got, shards)
					}
					checkIdentical(t, sharded, flat, ds, 100)
				})
			}
		}
	}
}

// TestShardedVector32MatchesUnsharded runs the sharded front over a
// float32 dataset: every shard's LAESA arms its flat float32 mirror and
// scratch pool, and the concurrent scatter-gather probes must still
// agree with the unsharded index exactly.
func TestShardedVector32MatchesUnsharded(t *testing.T) {
	ds := testutil.Vector32Dataset(240, 4, 100, core.L2{}, 11)
	build := func(sub *core.Dataset) (core.Index, error) {
		pv, err := pivot.HFI(sub, 4, pivot.Options{Seed: 3})
		if err != nil {
			return nil, err
		}
		return table.NewLAESA(sub, pv)
	}
	flat, err := build(ds)
	if err != nil {
		t.Fatalf("flat build: %v", err)
	}
	sharded, err := New(ds, build, Options{Shards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	checkIdentical(t, sharded, flat, ds, 100)
}

func TestShardedUpdatesStayIdentical(t *testing.T) {
	for _, b := range builders() {
		t.Run(b.name, func(t *testing.T) {
			ds := testutil.VectorDataset(150, 4, 100, core.L2{}, 13)
			flat, err := b.build(ds)
			if err != nil {
				t.Fatalf("flat build: %v", err)
			}
			sharded, err := New(ds, b.build, Options{Shards: 4})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			// Delete a third (index first, then dataset — per the Index
			// contract), reinsert fresh objects, re-verify equivalence.
			for id := 0; id < 150; id += 3 {
				if err := sharded.Delete(id); err != nil {
					t.Fatalf("sharded Delete(%d): %v", id, err)
				}
				if err := flat.Delete(id); err != nil {
					t.Fatalf("flat Delete(%d): %v", id, err)
				}
				if err := ds.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 30; i++ {
				v := core.Vector{float64(i), float64(i * 2), 50, 50}
				id := ds.Insert(v)
				if err := sharded.Insert(id); err != nil {
					t.Fatalf("sharded Insert(%d): %v", id, err)
				}
				if err := flat.Insert(id); err != nil {
					t.Fatalf("flat Insert(%d): %v", id, err)
				}
			}
			checkIdentical(t, sharded, flat, ds, 200)
		})
	}
}

func TestRoundRobinBalance(t *testing.T) {
	ds := testutil.VectorDataset(103, 3, 100, core.L2{}, 5)
	s, err := New(ds, builders()[0].build, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	sizes := s.ShardSizes()
	min, max := math.MaxInt, 0
	total := 0
	for _, n := range sizes {
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total != 103 {
		t.Fatalf("shard sizes %v sum to %d, want 103", sizes, total)
	}
	if max-min > 1 {
		t.Fatalf("round-robin shard sizes %v differ by more than one", sizes)
	}
}

func TestHashPartitionIsOrderIndependent(t *testing.T) {
	h := Hash{}
	for id := 0; id < 100; id++ {
		a := h.Place(0, id, nil, 7)
		b := h.Place(42, id, nil, 7)
		if a != b || a < 0 || a >= 7 {
			t.Fatalf("hash placement of %d depends on seq (%d vs %d) or out of range", id, a, b)
		}
	}
}

func TestShardedCostCountersSum(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 17)
	s, err := New(ds, builders()[2].build, Options{Shards: 4}) // SPB-tree: disk-based
	if err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	if pa := s.PageAccesses(); pa != 0 {
		t.Fatalf("PageAccesses after ResetStats = %d", pa)
	}
	q := testutil.RandomQuery(ds, 1)
	if _, err := s.RangeSearch(q, 30); err != nil {
		t.Fatal(err)
	}
	var want int64
	for i := 0; i < s.NumShards(); i++ {
		want += s.Shard(i).PageAccesses()
	}
	if got := s.PageAccesses(); got == 0 || got != want {
		t.Fatalf("PageAccesses = %d, want shard sum %d (> 0)", got, want)
	}
	if s.DiskBytes() == 0 {
		t.Fatal("DiskBytes should sum shard footprints")
	}
	if s.MemBytes() == 0 {
		t.Fatal("MemBytes should be positive")
	}
}

func TestShardedUpdateErrors(t *testing.T) {
	ds := testutil.VectorDataset(60, 3, 100, core.L2{}, 19)
	s, err := New(ds, builders()[0].build, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(7); err == nil {
		t.Fatal("duplicate Insert should error")
	}
	if err := s.Insert(1000); err == nil {
		t.Fatal("out-of-range Insert should error")
	}
	if err := s.Delete(1000); err == nil {
		t.Fatal("unknown Delete should error")
	}
	if err := s.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(7); err == nil {
		t.Fatal("double Delete should error")
	}
}

func TestShardedRejectsEmptyDataset(t *testing.T) {
	ds := core.NewDataset(core.NewSpace(core.L2{}), nil)
	if _, err := New(ds, builders()[0].build, Options{Shards: 2}); err == nil {
		t.Fatal("New over an empty dataset should error")
	}
}

func TestShardCountCappedAtObjects(t *testing.T) {
	ds := testutil.VectorDataset(5, 3, 100, core.L2{}, 23)
	s, err := New(ds, func(sub *core.Dataset) (core.Index, error) {
		pv := sub.LiveIDs() // every object a pivot: fine at this size
		return table.NewLAESA(sub, pv)
	}, Options{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumShards(); got != 5 {
		t.Fatalf("NumShards = %d, want cap at 5 live objects", got)
	}
}
