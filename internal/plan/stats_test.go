package plan

import (
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
)

// statsFixture: 100 rows — 30 category="a", 70 category="b"; the first
// 50 rows level=1, the rest level=2; every row x=i+1 (1..100); the
// first 20 rows carry tag "hot".
func statsFixture() *Stats {
	st := NewStats()
	for i := 0; i < 100; i++ {
		bag := core.Attrs{
			"level": core.IntValue(int64(1 + i/50)),
			"x":     core.IntValue(int64(i + 1)),
		}
		if i < 30 {
			bag["category"] = core.StringValue("a")
		} else {
			bag["category"] = core.StringValue("b")
		}
		if i < 20 {
			bag["tags"] = core.TagsValue("hot")
		}
		st.Observe(bag)
	}
	return st
}

func sel(t *testing.T, st *Stats, src string) float64 {
	t.Helper()
	return st.Selectivity(mustParse(t, src))
}

func TestSelectivityDiscrete(t *testing.T) {
	st := statsFixture()
	cases := []struct {
		src  string
		want float64
	}{
		{`category = "a"`, 0.3}, // exact-count table, exact answer
		{`category != "a"`, 0.7},
		{`category IN ("a", "b")`, 1.0},
		{`level = 1`, 0.5},
		{`tags = "hot"`, 0.2},
		{`nosuch = 1`, 0},
		{`category = "zzz"`, 0},
		{`category = "a" AND level = 1`, 0.15},     // product
		{`category = "a" OR level = 1`, 0.65},      // inclusion-exclusion
		{`category = "a" OR category = "b"`, 0.79}, // 1 - 0.7*0.3: independence, not union
	}
	for _, c := range cases {
		if got := sel(t, st, c.src); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Selectivity(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestSelectivityRange(t *testing.T) {
	st := statsFixture() // x uniform over 1..100
	cases := []struct {
		src       string
		want, tol float64
	}{
		{`x < 50`, 0.49, 0.15}, // octave interpolation is coarse
		{`x > 50`, 0.50, 0.15},
		{`x >= 1`, 1.0, 0.05},
		{`x < 1`, 0.0, 0.05},
		{`x > 1000`, 0.0, 0.01},
		{`category < "b"`, 0.5, 1e-9}, // string range: flat half-of-field default
	}
	for _, c := range cases {
		if got := sel(t, st, c.src); math.Abs(got-c.want) > c.tol {
			t.Errorf("Selectivity(%q) = %v, want %v ± %v", c.src, got, c.want, c.tol)
		}
	}
}

func TestSelectivityEmptyStats(t *testing.T) {
	if got := sel(t, NewStats(), `a = 1`); got != 0 {
		t.Fatalf("empty stats selectivity = %v, want 0", got)
	}
}

// TestSelectivityOverflowPool: past maxDistinct distinct values the
// exact table stops growing and equality estimates come from the
// overflow pool — approximate but nonzero and small.
func TestSelectivityOverflowPool(t *testing.T) {
	st := NewStats()
	n := maxDistinct + 200
	for i := 0; i < n; i++ {
		st.Observe(core.Attrs{"u": core.StringValue(fmt.Sprintf("val-%d", i))})
	}
	if got := st.ValueRows("u", fmt.Sprintf("val-%d", n-1)); got != 0 {
		t.Fatalf("pooled value reported %d exact rows, want 0", got)
	}
	got := sel(t, st, fmt.Sprintf(`u = "val-%d"`, n-1))
	if got <= 0 || got > 0.05 {
		t.Fatalf("overflow-pool selectivity = %v, want small positive", got)
	}
}

// TestObserveRemoveInverse: removing every observed bag restores all
// counters to zero — rows, per-field counts, exact tables, and every
// histogram bucket. This exactness (bucketOf is a pure function of the
// value) is what the epoch churn test leans on.
func TestObserveRemoveInverse(t *testing.T) {
	bags := []core.Attrs{
		nil,
		{},
		{"a": core.IntValue(7), "b": core.StringValue("x")},
		{"a": core.FloatValue(-0.001), "t": core.TagsValue("p", "q")},
		{"a": core.FloatValue(math.NaN()), "b": core.StringValue("x")},
		{"a": core.IntValue(0), "t": core.TagsValue()},
	}
	st := NewStats()
	for _, b := range bags {
		st.Observe(b)
	}
	for _, b := range bags {
		st.Remove(b)
	}
	if st.Rows() != 0 {
		t.Fatalf("Rows = %d after full removal, want 0", st.Rows())
	}
	for _, f := range []string{"a", "b", "t"} {
		if n := st.FieldRows(f); n != 0 {
			t.Errorf("FieldRows(%q) = %d, want 0", f, n)
		}
		for i, c := range st.HistogramCounts(f) {
			if c != 0 {
				t.Errorf("HistogramCounts(%q)[%d] = %d, want 0", f, i, c)
			}
		}
	}
	if n := st.ValueRows("b", "x"); n != 0 {
		t.Errorf("ValueRows(b, x) = %d, want 0", n)
	}
}

// TestChoose walks the planner's policy over (kind, k, pushdown). On a
// PushdownPruned index a range query never plans pre, and a kNN plans
// pre only up to preMatchesPerNeighbor expected matches per requested
// neighbour; on the others the rule is selectivity alone.
func TestChoose(t *testing.T) {
	const n = 100000
	// perK is the selectivity at which the expected matches are exactly
	// preMatchesPerNeighbor·k.
	perK := func(k int) float64 { return preMatchesPerNeighbor * float64(k) / n }
	cases := []struct {
		kind Kind
		k    int
		sel  float64
		n    int
		pd   Pushdown
		want Strategy
	}{
		// 1 000 rare matches: with pruned pushdown the probe beats
		// sweeping every row, at k = 1 and 10 and for a range; at
		// k = 100 the matches are few enough for pre.
		{KindKNN, 10, 0.01, n, PushdownPruned, StrategyProbe},
		{KindKNN, 1, 0.01, n, PushdownPruned, StrategyProbe},
		{KindKNN, 100, 0.01, n, PushdownPruned, StrategyPre},
		{KindRange, 0, 0.01, n, PushdownPruned, StrategyProbe},
		// A probe that reads every row, or none at all: 1 % is rare
		// enough for pre whatever the kind.
		{KindKNN, 10, 0.01, n, PushdownScan, StrategyPre},
		{KindRange, 0, 0.01, n, PushdownScan, StrategyPre},
		{KindKNN, 10, 0.01, n, PushdownNone, StrategyPre},
		{KindRange, 0, 0.01, n, PushdownNone, StrategyPre},
		// The pruned kNN boundary: pre at exactly preMatchesPerNeighbor·k
		// matches, probe past it.
		{KindKNN, 10, perK(10), n, PushdownPruned, StrategyPre},
		{KindKNN, 10, 1.5 * perK(10), n, PushdownPruned, StrategyProbe},
		{KindKNN, 1, perK(1), n, PushdownPruned, StrategyPre},
		// A range query never plans pre on a pruned index, even over a
		// handful of matches.
		{KindRange, 0, 0.0001, n, PushdownPruned, StrategyProbe},
		{KindRange, 0, 0.2, 500, PushdownPruned, StrategyProbe},
		// 100 expected matches at n = 500: pre for a kNN of 10 on a
		// pruned index, and pre elsewhere (≤ preMaxMatches).
		{KindKNN, 10, 0.2, 500, PushdownPruned, StrategyPre},
		{KindRange, 0, 0.2, 500, PushdownScan, StrategyPre},
		{KindRange, 0, 0.2, 500, PushdownNone, StrategyPre},
		// Mid selectivity: probe with pushdown of either kind, post
		// without.
		{KindKNN, 10, 0.2, n, PushdownPruned, StrategyProbe},
		{KindRange, 0, 0.2, n, PushdownPruned, StrategyProbe},
		{KindKNN, 10, 0.2, n, PushdownScan, StrategyProbe},
		{KindRange, 0, 0.2, n, PushdownScan, StrategyProbe},
		{KindKNN, 10, 0.2, n, PushdownNone, StrategyPost},
		{KindRange, 0, 0.2, n, PushdownNone, StrategyPost},
		// Half the data matches: filter after, on any index.
		{KindKNN, 10, 0.5, n, PushdownPruned, StrategyPost},
		{KindRange, 0, 0.5, n, PushdownPruned, StrategyPost},
		{KindKNN, 10, 0.5, n, PushdownScan, StrategyPost},
		{KindKNN, 10, 0.9, n, PushdownNone, StrategyPost},
		// The selectivity boundary off the pruned path: sel == preMaxSel.
		{KindKNN, 10, 0.05, n, PushdownScan, StrategyPre},
		{KindRange, 0, 0.05, n, PushdownNone, StrategyPre},
	}
	for _, c := range cases {
		if got := Choose(c.kind, c.k, c.sel, c.n, c.pd); got != c.want {
			t.Errorf("Choose(kind %d, k %d, sel %v, n %d, pushdown %d) = %v, want %v",
				c.kind, c.k, c.sel, c.n, c.pd, got, c.want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	for st, want := range map[Strategy]string{
		StrategyPre: "pre", StrategyProbe: "probe", StrategyPost: "post",
	} {
		if got := st.String(); got != want {
			t.Errorf("Strategy(%d).String() = %q, want %q", st, got, want)
		}
	}
}
