package table_test

import (
	"fmt"
	"slices"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/plan"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// TestFilterWordsMatchAccept holds the word pass to the per-id accept
// test it replaces. For every in-memory table family, on vectors (the
// flat path) and words (the chunked path), every predicate of the
// harness's battery is run twice per query: handed over as the compiled
// plan.Matcher, which LAESA's and CPT's tables answer from their
// row-ordered attribute copy 64 rows at a time (EPT/EPT*'s per-row
// layout keeps no copy and calls Match), and as the bare core.Accept of
// its Match method, which the table calls per candidate id. Answers,
// compdists and page accesses must be identical, for kNN at
// k ∈ {1, 10, 100} and for range at three radii, on the fresh build,
// after a churn of adds, removes and attribute rewrites through
// epoch.Live (the copy must stay in step and pass Validate), after a
// Dataset.SetAttrs behind the table's back (the copy is then out of
// step and the query falls back to the per-id test), and with a matcher
// compiled on another dataset.
func TestFilterWordsMatchAccept(t *testing.T) {
	var preds []*plan.Predicate
	for _, src := range testutil.FilterPredicates() {
		p, err := plan.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		preds = append(preds, p)
	}
	for _, family := range []string{"LAESA", "CPT", "EPT", "EPT*"} {
		for _, words := range []bool{false, true} {
			name := fmt.Sprintf("%s/words=%v", family, words)
			ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 7)
			if words {
				ds = testutil.WordDataset(1500, 11)
			}
			testutil.AttachTestAttrs(t, ds, 5)
			idx := goldenBuild(t, family, ds)
			copies := family == "LAESA" || family == "CPT" // the shared layout
			tab := idx.(interface{ Table() *table.Table }).Table()
			as := idx.(core.AcceptSearcher)
			queries := make([]core.Object, 3)
			for i := range queries {
				queries[i] = testutil.RandomQuery(ds, int64(i))
			}
			check := func(stage string, on *core.Dataset, wantWords bool) {
				t.Helper()
				for _, p := range preds {
					m := p.Compile(on)
					if got := tab.WordPass(m); got != wantWords {
						t.Fatalf("%s %s %q: word pass %v, want %v", name, stage, p, got, wantWords)
					}
					for qi, q := range queries {
						for _, k := range []int{1, 10, 100} {
							label := fmt.Sprintf("%s %s %q query %d kNN k=%d", name, stage, p, qi, k)
							sameCosts(t, label, ds, idx, func(f core.Filter) (any, error) { return as.KNNSearchAccept(q, k, f) }, m)
						}
						for _, r := range testutil.Radii(ds, q) {
							label := fmt.Sprintf("%s %s %q query %d range r=%v", name, stage, p, qi, r)
							sameCosts(t, label, ds, idx, func(f core.Filter) (any, error) { return as.RangeSearchAccept(q, r, f) }, m)
						}
					}
					m.Release()
				}
			}
			check("fresh", ds, copies)

			live := epoch.NewLive(ds, idx)
			var added []int
			for i := 0; i < 80; i++ {
				a := core.Attrs{"level": core.IntValue(int64(i % 10)), "category": core.StringValue("rare")}
				if i%4 == 0 {
					a["extra"] = core.FloatValue(float64(i)) // a field no row held: a new column
				}
				id, _, err := live.AddAttrsAt(ds.Object(i), a)
				if err != nil {
					t.Fatalf("%s: AddAttrsAt: %v", name, err)
				}
				added = append(added, id)
			}
			for i, id := range ds.LiveIDs() {
				var err error
				switch {
				case i%11 == 0 && !slices.Contains(added, id):
					_, err = live.RemoveAt(id)
				case i%5 == 0:
					_, err = live.SetAttrsAt(id, core.Attrs{"category": core.StringValue("mid"), "score": core.FloatValue(float64(i % 100)), "tags": core.TagsValue("hot", "new")})
				case i%13 == 0:
					_, err = live.SetAttrsAt(id, nil)
				}
				if err != nil {
					t.Fatalf("%s: churn on %d: %v", name, id, err)
				}
			}
			if copies && !tab.AttrCopyInStep() {
				t.Fatalf("%s: the attribute copy fell out of step under writes through epoch.Live", name)
			}
			if err := tab.Validate(); err != nil {
				t.Fatalf("%s: after churn: %v", name, err)
			}
			check("after churn", ds, copies)

			other := testutil.VectorDataset(1, 4, 100, core.L2{}, 1)
			if words {
				other = testutil.WordDataset(1, 1)
			}
			for range ds.Len() - 1 {
				other.Insert(other.Object(0))
			}
			testutil.AttachTestAttrs(t, other, 9)
			check("matcher of another dataset", other, false)

			id := ds.LiveIDs()[3]
			if err := ds.SetAttrs(id, core.Attrs{"category": core.StringValue("rare"), "level": core.IntValue(9)}); err != nil {
				t.Fatal(err)
			}
			if copies && tab.AttrCopyInStep() {
				t.Fatalf("%s: a Dataset.SetAttrs behind the table left its copy in step", name)
			}
			if err := tab.Validate(); err != nil {
				t.Fatalf("%s: out of step: %v", name, err)
			}
			check("after a bypassing write", ds, false)
		}
	}
}

// sameCosts runs one filtered search with m itself and with the bare
// Accept of its Match method, and fails unless both answer alike at the
// same compdists and page accesses.
func sameCosts(t *testing.T, label string, ds *core.Dataset, idx core.Index, search func(core.Filter) (any, error), m *plan.Matcher) {
	t.Helper()
	run := func(f core.Filter) (string, int64, int64) {
		ds.Space().ResetCompDists()
		idx.ResetStats()
		res, err := search(f)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return fmt.Sprint(res), ds.Space().CompDists(), idx.PageAccesses()
	}
	wAns, wCD, wPA := run(m)
	aAns, aCD, aPA := run(core.Accept(m.Match))
	if wAns != aAns || wCD != aCD || wPA != aPA {
		t.Fatalf("%s: word pass answers %s at %d compdists, %d PA; per-id accept %s at %d, %d", label, wAns, wCD, wPA, aAns, aCD, aPA)
	}
}
