package plan

import (
	"math"
	"math/rand"
	"testing"

	"metricindex/internal/core"
)

var fuzzSeeds = []string{
	`category = "mid"`,
	`level >= 2 AND score < 90`,
	`(a < 1 OR b > 2) AND c != 3`,
	`tags IN ("hot", "sale")`,
	`x IN (1, 2.5, -3e2)`,
	`f = "quote\"backslash\\"`,
	`LEVEL = 1 and level = 2 or level = 3`,
	"price <",
	"price IN ()",
	`name = "unterminated`,
	"((((((((((a=1))))))))))",
	"a.b-c = 1",
	"!= = !=",
	"\x00\xff",
}

func fuzzBags() []core.Attrs {
	return []core.Attrs{
		nil,
		{},
		{
			"category": core.StringValue("mid"),
			"level":    core.IntValue(7),
			"score":    core.FloatValue(41.5),
			"tags":     core.TagsValue("hot", "sale"),
		},
		{"a": core.IntValue(-1), "b": core.FloatValue(2.5), "c": core.IntValue(3)},
		{"x": core.FloatValue(2.5), "f": core.StringValue(`quote"backslash\`)},
	}
}

// FuzzPredicateParse: for any input that parses, the canonical form
// must itself parse, be a fixpoint of canonicalization, and evaluate
// identically to the original — the properties the answer cache needs
// from String() as a key component. Parse must never panic.
func FuzzPredicateParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	bags := fuzzBags()
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q -> %q: %v", src, s, err)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("canonical form not a fixpoint: %q -> %q -> %q", src, s, s2)
		}
		for i, bag := range bags {
			if p.Eval(bag) != p2.Eval(bag) {
				t.Fatalf("reparsed %q disagrees with %q on bag %d", s, src, i)
			}
		}
	})
}

// FuzzPredicateEval: evaluation is total and deterministic — any
// parsed predicate against any bag (including nil) yields a stable
// boolean and never panics, whatever values the bag holds.
func FuzzPredicateEval(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(7), 41.5, "mid")
	}
	f.Add(`score = 0`, int64(0), 0.0, "")
	f.Add(`level < 3 OR tags = "x"`, int64(-1), -1e308, "x")
	f.Fuzz(func(t *testing.T, src string, iv int64, fv float64, sv string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		bag := core.Attrs{
			"category": core.StringValue(sv),
			"level":    core.IntValue(iv),
			"score":    core.FloatValue(fv),
			"tags":     core.TagsValue(sv, "hot"),
		}
		got := p.Eval(bag)
		if p.Eval(bag) != got {
			t.Fatalf("Eval not deterministic for %q", src)
		}
		_ = p.Eval(nil)
		_ = p.Eval(core.Attrs{})
	})
}

// fuzzColumnDataset fills a dataset of n rows with random heterogeneous
// bags drawn from seed: one field name takes every kind across rows,
// values include NaN, ±Inf, ints above 2^53, the empty string and the
// fuzzer's own string and float, rows miss fields or carry none, some
// slots are deleted, and one field lives on a single high row (a sparse
// column).
func fuzzColumnDataset(seed int64, n int, sv string, fv float64) *core.Dataset {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]core.Object, n)
	for i := range objs {
		objs[i] = core.Vector{float64(i)}
	}
	ds := core.NewDataset(core.NewSpace(core.L2{}), objs)
	strs := []string{"", "a", "b", "hot", "mid", "sale", sv}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, 41.5, math.NaN(), math.Inf(1), math.Inf(-1), fv}
	value := func() core.AttrValue {
		switch rng.Intn(5) {
		case 0:
			ints := []int64{0, 1, 3, 7, -1, 1<<53 + 1, math.MaxInt64, math.MinInt64, int64(fv)}
			return core.IntValue(ints[rng.Intn(len(ints))])
		case 1:
			return core.FloatValue(floats[rng.Intn(len(floats))])
		case 2:
			return core.StringValue(strs[rng.Intn(len(strs))])
		default:
			tags := make([]string, rng.Intn(4))
			for i := range tags {
				tags[i] = strs[rng.Intn(len(strs))]
			}
			return core.TagsValue(tags...)
		}
	}
	fields := []string{"category", "level", "score", "tags", "a", "b", "c", "x", "f"}
	for id := 0; id < n; id++ {
		if rng.Intn(8) == 0 {
			continue
		}
		a := core.Attrs{}
		for _, f := range fields {
			if rng.Intn(3) > 0 {
				a[f] = value()
			}
		}
		if err := ds.SetAttrs(id, a); err != nil {
			panic(err)
		}
	}
	last := ds.Attrs(n - 1)
	if last == nil {
		last = core.Attrs{}
	}
	last["name"] = value()
	if err := ds.SetAttrs(n-1, last); err != nil {
		panic(err)
	}
	for id := 0; id < n-1; id++ {
		if rng.Intn(10) == 0 {
			_ = ds.Delete(id)
		}
	}
	return ds
}

// FuzzCompiledPredicate: the compiled matcher is a faithful compilation —
// for every row, Match, the column-at-a-time Rows and the word pass
// agree with the reference Predicate.Eval over the materialised bag.
// The word pass runs over a row-ordered copy of the cells whose rows
// are the ids shuffled (an index's row order), in windows of random
// length and offset.
func FuzzCompiledPredicate(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(1), "mid", 41.5)
	}
	f.Add(`score != 0 OR score < -1 OR score >= 1e300`, int64(2), "", 0.0)
	f.Add(`level = 9007199254740993 OR level > 1e18`, int64(3), "x", -0.0)
	f.Add(`tags IN ("", "hot", 3) AND category >= "b"`, int64(4), "", 1e308)
	f.Add(`name != "a" OR name < ""`, int64(5), "name", 7.0)
	f.Fuzz(func(t *testing.T, src string, seed int64, sv string, fv float64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		ds := fuzzColumnDataset(seed, 150, sv, fv)
		m := p.Compile(ds)
		defer m.Release()
		rows := map[int]bool{}
		for id := range m.Rows() {
			rows[id] = true
		}
		for id := 0; id < ds.Len(); id++ {
			want := p.Eval(ds.Attrs(id))
			if got := m.Match(id); got != want {
				t.Fatalf("%q row %d %v: Match %v, Eval %v", p, id, ds.Attrs(id), got, want)
			}
			if rows[id] != want {
				t.Fatalf("%q row %d %v: Rows %v, Eval %v", p, id, ds.Attrs(id), rows[id], want)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		ids := make([]int32, ds.Len())
		for i := range ids {
			ids[i] = int32(i)
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		var copied core.AttrRows
		copied.Reset(ds.AttrStore(), ids)
		for base, end := 0, 0; base < len(ids); base = end {
			if rng.Intn(4) == 0 {
				base = rng.Intn(len(ids)) // a window at any offset, besides the tiling
			}
			end = min(base+1+rng.Intn(64), len(ids))
			word := m.Word(&copied, base, end)
			if word>>(end-base) != 0 {
				t.Fatalf("%q window [%d, %d): word %#x sets bits past its rows", p, base, end, word)
			}
			for row := base; row < end; row++ {
				id := int(ids[row])
				if got, want := word>>(row-base)&1 != 0, p.Eval(ds.Attrs(id)); got != want {
					t.Fatalf("%q row %d (id %d) %v: Word %v, Eval %v", p, row, id, ds.Attrs(id), got, want)
				}
			}
		}
	})
}
