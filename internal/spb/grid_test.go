package spb

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"metricindex/internal/bptree"
	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// keyCand is one kNN candidate of a leaf: its bound, its position in the
// leaf and its id.
type keyCand struct {
	lb  float64
	pos int
	id  int
}

// perKeyKeys is the key test without the sub-cube skip: every key of
// leaf n decoded on its own and tested on its own cell, the kNN
// candidates stably sorted by bound. grid.keys must produce exactly
// this, bit for bit and in this order.
func perKeyKeys(g *grid, sc *scratch, n bptree.View, r float64) (knn []keyCand, cands, ids []int) {
	for i := 0; i < n.Len(); i++ {
		key, val := n.Record(i)
		c := g.curve.DecodePacked(key)
		switch {
		case sc.knn:
			if lb := g.cellMinDist(sc, c, c); lb <= r {
				knn = append(knn, keyCand{lb, i, int(val)})
			}
		case g.pruneCell(sc, c, c):
		case g.validateCell(sc, c):
			ids = append(ids, int(val))
		default:
			cands = append(cands, int(val))
		}
	}
	slices.SortStableFunc(knn, func(a, b keyCand) int { return cmp.Compare(a.lb, b.lb) })
	return knn, cands, ids
}

// TestGridKeysMatchPerKey holds grid.keys, with its sub-cube skip, to
// the per-key test over every leaf of an SPB-tree: the kNN candidates
// (ids, bounds and pop order) and the range query's reads and unread
// admissions must be identical at radius 0, at a calibrated radius, at
// a radius whose every bound falls exactly on a grid line, at +Inf, and
// with a NaN query distance. The grid is 5 pivots × 12 bits at 16 cells
// per distance unit, so the grid lines are exact binary fractions and
// the on-line case compares equal floats, not near ones.
func TestGridKeysMatchPerKey(t *testing.T) {
	ds := testutil.VectorDataset(4000, 5, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := New(ds, store.NewPager(512), pv, Options{MaxDistance: 4095.0 / 16})
	if err != nil {
		t.Fatal(err)
	}
	g := idx.fam.(*grid)
	if g.bits != 12 || g.scale != 16 {
		t.Fatalf("grid is %d bits at scale %v; the test wants 12 at 16", g.bits, g.scale)
	}
	var leaves []bptree.View
	_, n, err := idx.tree.LeafFor(0)
	for ; err == nil; n, err = idx.tree.View(n.Next()) {
		leaves = append(leaves, n)
		if n.Next() == store.InvalidPage {
			break
		}
	}
	if err != nil || len(leaves) < 10 {
		t.Fatalf("walked %d leaves: %v", len(leaves), err)
	}

	type query struct {
		name string
		qd   []float64
		r    float64
	}
	var queries []query
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		qd := idx.distances(nil, q)
		nn, err := idx.KNNSearch(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		calibrated := nn[len(nn)-1].Dist
		onLine := make([]float64, len(qd))
		for i, d := range qd {
			onLine[i] = g.bound(uint64(g.cell(d)))
		}
		nan := slices.Clone(qd)
		nan[1] = math.NaN()
		queries = append(queries,
			query{"r=0", qd, 0},
			query{"calibrated", qd, calibrated},
			query{"grid line", onLine, 5}, // 80 cells: qd ± r is a grid line
			query{"+Inf", qd, math.Inf(1)},
			query{"NaN distance", nan, calibrated})
	}

	skipped := 0
	sc := idx.getScratch()
	for _, qu := range queries {
		sc.qd, sc.r = qu.qd, qu.r
		for _, knn := range []bool{true, false} {
			sc.knn = knn
			for li, n := range leaves {
				wantKNN, wantCands, wantIDs := perKeyKeys(g, sc, n, qu.r)
				sc.lazy.Reset()
				sc.cands, sc.ids = sc.cands[:0], sc.ids[:0]
				if !g.keys(sc, n, 0, math.MaxUint64, qu.r) {
					t.Fatalf("%s: leaf %d: the SPB-tree's key test ended a band", qu.name, li)
				}
				var gotKNN []keyCand
				for it, ok := sc.lazy.PopWithin(math.Inf(1)); ok; it, ok = sc.lazy.PopWithin(math.Inf(1)) {
					gotKNN = append(gotKNN, keyCand{it.LB, int(it.Tie), it.V})
				}
				if !slices.EqualFunc(gotKNN, wantKNN, func(a, b keyCand) bool {
					return math.Float64bits(a.lb) == math.Float64bits(b.lb) && a.pos == b.pos && a.id == b.id
				}) {
					t.Fatalf("%s r=%v: leaf %d kNN candidates\n got  %v\n want %v", qu.name, qu.r, li, gotKNN, wantKNN)
				}
				if !slices.Equal(sc.cands, wantCands) || !slices.Equal(sc.ids, wantIDs) {
					t.Fatalf("%s r=%v: leaf %d range reads %v admits %v; per key %v and %v",
						qu.name, qu.r, li, sc.cands, sc.ids, wantCands, wantIDs)
				}
				if qu.name != "calibrated" {
					continue
				}
				// Count the keys the skip passes, so a skip that never
				// fires cannot pass for an exact one.
				for i := 0; i < n.Len(); i++ {
					key, _ := n.Record(i)
					c := g.curve.DecodePacked(key)
					if g.fails(sc, c, c, qu.r) {
						end := g.skip(sc, n, i, key, c, qu.r)
						skipped += end - i
						i = end
					}
				}
			}
		}
	}
	idx.pool.Put(sc)
	if skipped == 0 {
		t.Fatal("no key was skipped at the calibrated radius")
	}
	t.Logf("%d keys skipped at the calibrated radius over %d leaves", skipped, len(leaves))
}
