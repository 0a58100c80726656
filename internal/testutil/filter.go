package testutil

import (
	"math/rand"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/plan"
)

// Filtered-search equivalence: the metamorphic relation every index
// family must preserve is that a filtered query answers exactly the
// brute-force filter-then-scan — whichever of the three strategies
// (pre, probe, post) executes it, and whichever one the planner picks.
// CheckFilterEquivalence drives all of them against one index build
// over a predicate set spanning the whole selectivity range.

// AttachTestAttrs gives every live object a deterministic attribute bag
// shaped for predicate testing: a three-valued category with skewed
// marginals (~10% "rare", ~30% "mid", ~60% "common"), a level int in
// 0..9, a score float in [0, 100), and a sparse "hot" tag (~25%).
func AttachTestAttrs(tb testing.TB, ds *core.Dataset, seed int64) {
	tb.Helper()
	attachTestAttrs(tb, ds, seed, nil)
}

// attachTestAttrs is AttachTestAttrs on a dataset idx is built over:
// when idx keeps a copy of the attribute cells (RefreshAttrs), it is
// shown each write right after it, as epoch.Live does, so the copy
// stays in step.
func attachTestAttrs(tb testing.TB, ds *core.Dataset, seed int64, idx core.Index) {
	tb.Helper()
	refresher, _ := idx.(interface{ RefreshAttrs(id int) })
	rng := rand.New(rand.NewSource(seed))
	for _, id := range ds.LiveIDs() {
		a := core.Attrs{
			"level": core.IntValue(int64(rng.Intn(10))),
			"score": core.FloatValue(rng.Float64() * 100),
		}
		switch r := rng.Float64(); {
		case r < 0.10:
			a["category"] = core.StringValue("rare")
		case r < 0.40:
			a["category"] = core.StringValue("mid")
		default:
			a["category"] = core.StringValue("common")
		}
		if rng.Float64() < 0.25 {
			a["tags"] = core.TagsValue("hot")
		}
		if err := ds.SetAttrs(id, a); err != nil {
			tb.Fatalf("SetAttrs(%d): %v", id, err)
		}
		if refresher != nil {
			refresher.RefreshAttrs(id)
		}
	}
}

// FilterPredicates is the harness's predicate battery: selectivities
// from zero (missing field, impossible range) through a few percent up
// to near-total, covering every leaf type (string equality, numeric
// comparison on ints and floats, IN lists, tag membership) and both
// connectives.
func FilterPredicates() []string {
	return []string{
		`category = "rare" AND level >= 8`,
		`category = "rare"`,
		`tags = "hot"`,
		`category IN ("rare", "mid")`,
		`score < 50`,
		`level >= 2 OR category = "rare"`,
		`(category = "common" AND score >= 25) OR tags = "hot"`,
		`level != 0`,
		`level >= 999`,
		`nosuch = 1`,
	}
}

// CheckFilterEquivalence attaches test attrs to ed's dataset, then for
// every predicate in the battery and every probe query requires:
//
//	(a) each forced strategy — pre, probe, post — answers MRQ and MkNNQ
//	    exactly like the brute-force filter-then-scan (on an index
//	    without probe-filter support, forced probe degrades to post and
//	    must still be exact);
//	(b) the planner's own choice over a histogram fed from the same
//	    bags agrees too, whatever strategy it picked.
//
// The index must already be built over ed.DS. Attrs never change the
// metric, so attaching them after the build leaves its rows valid; an
// index that copies the cells (RefreshAttrs) is refreshed after every
// write, so its probe reads the copy rather than falling back to the
// per-id test.
func CheckFilterEquivalence(t *testing.T, ed EquivDataset, idx core.Index) {
	t.Helper()
	ds := ed.DS
	attachTestAttrs(t, ds, 42, idx)
	stats := plan.NewStats()
	for _, id := range ds.LiveIDs() {
		stats.Observe(ds.Attrs(id))
	}

	type probe struct {
		q     core.Object
		radii []float64
	}
	probes := make([]probe, 3)
	for qs := range probes {
		q := RandomQuery(ds, int64(qs))
		probes[qs] = probe{q: q, radii: Radii(ds, q)}
	}
	ks := []int{1, 5, 20}
	pd := plan.PushdownOf(idx)

	for _, src := range FilterPredicates() {
		p, err := plan.Parse(src)
		if err != nil {
			t.Fatalf("%s: Parse(%q): %v", ed.Name, src, err)
		}
		sel := stats.Selectivity(p)
		for qs, pr := range probes {
			for _, r := range pr.radii {
				want := bruteFilterRange(ds, p, pr.q, r)
				for _, st := range plan.Strategies {
					got, err := plan.ExecRange(ds, idx, p, pr.q, r, st, nil)
					if err != nil {
						t.Fatalf("%s: %q: ExecRange(%v, r=%v): %v", ed.Name, src, st, r, err)
					}
					if !equalInts(got, want) {
						t.Fatalf("%s: %q: query %d MRQ(r=%v) via %v:\n got  %v\n want %v",
							ed.Name, src, qs, r, st, got, want)
					}
				}
				strat := plan.Choose(plan.KindRange, 0, sel, ds.Count(), pd)
				got, err := plan.ExecRange(ds, idx, p, pr.q, r, strat, nil)
				if err != nil {
					t.Fatalf("%s: %q: planned ExecRange: %v", ed.Name, src, err)
				}
				if !equalInts(got, want) {
					t.Fatalf("%s: %q: query %d planner MRQ(r=%v) chose %v:\n got  %v\n want %v",
						ed.Name, src, qs, r, strat, got, want)
				}
			}
			for _, k := range ks {
				want := bruteFilterKNN(ds, p, pr.q, k)
				for _, st := range plan.Strategies {
					got, err := plan.ExecKNN(ds, idx, p, pr.q, k, st, sel, nil)
					if err != nil {
						t.Fatalf("%s: %q: ExecKNN(%v, k=%d): %v", ed.Name, src, st, k, err)
					}
					if err := sameNeighbors(got, want); err != nil {
						t.Fatalf("%s: %q: query %d MkNNQ(k=%d) via %v: %v\n got  %v\n want %v",
							ed.Name, src, qs, k, st, err, got, want)
					}
				}
				strat := plan.Choose(plan.KindKNN, k, sel, ds.Count(), pd)
				got, err := plan.ExecKNN(ds, idx, p, pr.q, k, strat, sel, nil)
				if err != nil {
					t.Fatalf("%s: %q: planned ExecKNN: %v", ed.Name, src, err)
				}
				if err := sameNeighbors(got, want); err != nil {
					t.Fatalf("%s: %q: query %d planner MkNNQ(k=%d) chose %v: %v",
						ed.Name, src, qs, k, strat, err)
				}
			}
		}
	}
}

// bruteFilterRange is the specification: evaluate the predicate on
// every live bag, compute distances only for matches, ids ascending.
func bruteFilterRange(ds *core.Dataset, p *plan.Predicate, q core.Object, r float64) []int {
	m := ds.Space().Metric()
	var res []int
	for _, id := range ds.LiveIDs() {
		if p.Eval(ds.Attrs(id)) && m.Distance(q, ds.Object(id)) <= r {
			res = append(res, id)
		}
	}
	return res
}

// bruteFilterKNN is the kNN specification, sharing the library's
// (distance, id) total order via the same heap the indexes use.
func bruteFilterKNN(ds *core.Dataset, p *plan.Predicate, q core.Object, k int) []core.Neighbor {
	m := ds.Space().Metric()
	h := core.NewKNNHeap(k)
	for _, id := range ds.LiveIDs() {
		if p.Eval(ds.Attrs(id)) {
			h.Push(id, m.Distance(q, ds.Object(id)))
		}
	}
	return h.Result()
}
