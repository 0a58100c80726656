package epoch_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"metricindex/internal/cache"
	"metricindex/internal/core"
	"metricindex/internal/epoch"
	"metricindex/internal/obs"
	"metricindex/internal/pivot"
	"metricindex/internal/plan"
	"metricindex/internal/shard"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// matrixFilters are the filter column of the option matrix: none, and
// three predicates over AttachTestAttrs' distributions at n=1500 (≈2%,
// ≈25% and ≈90% selectivity, K = 8) whose plans differ by kind and by
// whether the index pushes the accept test down. On LAESA a kNN plans
// pre, probe and post, and a range probe or post (a range never plans
// pre there); over SPB-tree shards, which cannot push down, both kinds
// plan pre or post. So each strategy is planned for each kind it
// applies to. They test different fields so one bag (matrixMarkerBag)
// satisfies all three.
var matrixFilters = []struct {
	src string
	// The planned strategy on LAESA (plan.PushdownPruned), by kind, and
	// over SPB-tree shards (plan.PushdownNone; either kind).
	capableRange, capableKNN, incapable plan.Strategy
}{
	{"", 0, 0, 0},
	{`category = "rare" AND level >= 8`, plan.StrategyProbe, plan.StrategyPre, plan.StrategyPre},
	{`tags = "hot"`, plan.StrategyProbe, plan.StrategyProbe, plan.StrategyPost},
	{`level != 0`, plan.StrategyPost, plan.StrategyPost, plan.StrategyPost},
}

// matrixPlan is the strategy the matrix expects for filter f.
func matrixPlan(f int, kind plan.Kind, capable bool) plan.Strategy {
	switch mf := matrixFilters[f]; {
	case !capable:
		return mf.incapable
	case kind == plan.KindRange:
		return mf.capableRange
	default:
		return mf.capableKNN
	}
}

var matrixMarkerBag = core.Attrs{
	"category": core.StringValue("rare"),
	"level":    core.IntValue(9),
	"tags":     core.TagsValue("hot"),
}

// scan is the specification of Search: the linear filter-then-scan.
func scan(ds *core.Dataset, q plan.Query) plan.Answer {
	m := ds.Space().Metric()
	var a plan.Answer
	h := core.NewKNNHeap(q.K)
	for _, id := range ds.LiveIDs() {
		if q.Filter != nil && !q.Filter.Eval(ds.Attrs(id)) {
			continue
		}
		d := m.Distance(q.Object, ds.Object(id))
		if q.Kind == plan.KindKNN {
			h.Push(id, d)
		} else if d <= q.Radius {
			a.IDs = append(a.IDs, id)
		}
	}
	if q.Kind == plan.KindKNN {
		a.Neighbors = h.Result()
	}
	return a
}

func sameAnswer(got, want plan.Answer) bool {
	if len(got.IDs) != len(want.IDs) || len(got.Neighbors) != len(want.Neighbors) {
		return false
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return false
		}
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			return false
		}
	}
	return true
}

func spanNames(tr *obs.Trace) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans() {
		names[sp.Name] = true
	}
	return names
}

// viaAdapter answers q through the retained adapter a caller of the
// pre-Query API would have used for it.
func viaAdapter(l *epoch.Live, q plan.Query) (plan.Answer, []error) {
	var a plan.Answer
	var errs []error
	switch {
	case q.Filter != nil && q.Kind == plan.KindRange:
		var err error
		a.IDs, a.Epoch, a.Strategy, err = l.RangeSearchFiltered(q.Object, q.Radius, q.Filter)
		errs = append(errs, err)
	case q.Filter != nil:
		var err error
		a.Neighbors, a.Epoch, a.Strategy, err = l.KNNSearchFiltered(q.Object, q.K, q.Filter)
		errs = append(errs, err)
	case q.Kind == plan.KindRange:
		ids, err := l.RangeSearch(q.Object, q.Radius)
		var err2 error
		a.IDs, a.Epoch, err2 = l.RangeSearchAt(q.Object, q.Radius)
		errs = append(errs, err, err2)
		if !reflect.DeepEqual(ids, a.IDs) {
			errs = append(errs, fmt.Errorf("RangeSearch %v != RangeSearchAt %v", ids, a.IDs))
		}
	default:
		nns, err := l.KNNSearch(q.Object, q.K)
		var err2 error
		a.Neighbors, a.Epoch, err2 = l.KNNSearchAt(q.Object, q.K)
		errs = append(errs, err, err2)
		if !reflect.DeepEqual(nns, a.Neighbors) {
			errs = append(errs, fmt.Errorf("KNNSearch %v != KNNSearchAt %v", nns, a.Neighbors))
		}
	}
	return a, errs
}

// TestSearchOptionMatrix drives the one query path through every
// combination of its options — {range, kNN} × {no filter, three
// predicates} × {trace off/on} × {cache off/on} × {LAESA, 2-shard
// SPB-tree} — and requires of every cell: the answer equals the linear
// scan; a filtered cell ran the expected plan (matrixPlan), and every
// strategy is planned for each kind somewhere in the matrix; a
// traced cell carries read_wait and read_section (plus cache_probe,
// plan, and the per-shard probe and merge spans where they apply —
// filtered or not); with the cache on the repeat is served Cached at
// the same epoch and otherwise nothing is; the retained adapters return
// exactly what Search returns; and, with a writer adding and removing
// objects at the query point meanwhile, every (answer, epoch) pair is
// the dataset version the epoch names — i.e. came from one read section.
func TestSearchOptionMatrix(t *testing.T) {
	sel := func(ds *core.Dataset) ([]int, error) { return pivot.HFI(ds, 4, pivot.Options{Seed: 3}) }
	indexes := []struct {
		name             string
		sharded, capable bool
		build            epoch.Builder
	}{
		{"LAESA", false, true, func(ds *core.Dataset) (core.Index, error) {
			pv, err := sel(ds)
			if err != nil {
				return nil, err
			}
			return table.NewLAESA(ds, pv)
		}},
		{"Sharded[2×SPB-tree]", true, false, func(ds *core.Dataset) (core.Index, error) {
			return shard.New(ds, func(sub *core.Dataset) (core.Index, error) {
				pv, err := sel(sub)
				if err != nil {
					return nil, err
				}
				return spb.New(sub, store.NewPager(512), pv, spb.Options{MaxDistance: 400})
			}, shard.Options{Shards: 2})
		}},
	}
	cell := int64(0)
	planned := map[plan.Kind]map[plan.Strategy]bool{plan.KindRange: {}, plan.KindKNN: {}}
	for _, ix := range indexes {
		for _, cacheOn := range []bool{false, true} {
			ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 9)
			testutil.AttachTestAttrs(t, ds, 42)
			idx, err := ix.build(ds)
			if err != nil {
				t.Fatalf("%s: build: %v", ix.name, err)
			}
			l := epoch.NewLive(ds, idx)
			if cacheOn {
				l.SetCache(cache.New(cache.Options{}))
			}
			for _, kind := range []plan.Kind{plan.KindRange, plan.KindKNN} {
				for fi, f := range matrixFilters {
					for _, traced := range []bool{false, true} {
						cell++
						// A fresh query object per cell: every cell starts cold.
						q := plan.Query{Kind: kind, Object: testutil.RandomQuery(ds, cell), Radius: 25, K: 8}
						if f.src != "" {
							q.Filter = mustParsePlan(t, f.src)
						}
						name := fmt.Sprintf("%s/cache=%v/kind=%d/filter=%q/trace=%v", ix.name, cacheOn, kind, f.src, traced)
						want := matrixPlan(fi, kind, ix.capable)
						planned[kind][want] = true
						checkCell(t, name, l, q, want, traced, cacheOn, ix.sharded)
						checkOneReadSection(t, name, l, q, traced)
					}
				}
			}
		}
	}
	for kind, got := range planned {
		for _, st := range plan.Strategies {
			if !got[st] {
				t.Errorf("kind %d: no cell plans %v", kind, st)
			}
		}
	}
}

// checkCell is the quiesced half of one matrix cell.
func checkCell(t *testing.T, name string, l *epoch.Live, q plan.Query, wantPlan plan.Strategy, traced, cacheOn, sharded bool) {
	t.Helper()
	var want plan.Answer
	l.View(func(ds *core.Dataset, _ core.Index) { want = scan(ds, q) })
	if traced {
		q.Trace = obs.NewTraceAt(time.Now())
	}
	cold, err := l.Search(q)
	if err != nil {
		t.Fatalf("%s: Search: %v", name, err)
	}
	if !sameAnswer(cold, want) {
		t.Fatalf("%s: answer differs from the linear scan:\n got  %+v\n want %+v", name, cold, want)
	}
	if cold.Cached || cold.Strategy != wantPlan || cold.Epoch != l.Epoch() {
		t.Fatalf("%s: cold answer cached=%v strategy=%v epoch=%d; want a fresh %v answer at epoch %d",
			name, cold.Cached, cold.Strategy, cold.Epoch, wantPlan, l.Epoch())
	}
	if traced {
		names := spanNames(q.Trace)
		wantSpans := []string{"read_wait", "read_section"}
		if cacheOn {
			wantSpans = append(wantSpans, "cache_probe")
		}
		if q.Filter != nil {
			wantSpans = append(wantSpans, "plan")
		}
		if sharded && wantPlan != plan.StrategyPre { // a pre-filter scan never probes the index
			wantSpans = append(wantSpans, "probe_shard0", "probe_shard1", "merge")
		}
		for _, s := range wantSpans {
			if !names[s] {
				t.Fatalf("%s: trace lacks %q: have %v", name, s, q.Trace.Spans())
			}
		}
		q.Trace = obs.NewTraceAt(time.Now())
	}

	again, err := l.Search(q)
	if err != nil {
		t.Fatalf("%s: repeated Search: %v", name, err)
	}
	if !sameAnswer(again, want) || again.Epoch != cold.Epoch {
		t.Fatalf("%s: repeat differs: %+v vs %+v", name, again, cold)
	}
	if again.Cached != cacheOn || (cacheOn && again.Strategy != 0) {
		t.Fatalf("%s: repeat cached=%v strategy=%v with cache on=%v", name, again.Cached, again.Strategy, cacheOn)
	}
	if traced && cacheOn {
		if names := spanNames(q.Trace); !names["cache_probe"] || names["read_section"] {
			t.Fatalf("%s: a traced hit should probe the cache and skip the read section: %v", name, q.Trace.Spans())
		}
	}

	q.Trace = nil
	old, errs := viaAdapter(l, q)
	for _, err := range errs {
		if err != nil {
			t.Fatalf("%s: adapter: %v", name, err)
		}
	}
	if !sameAnswer(old, again) || old.Epoch != again.Epoch || old.Strategy != again.Strategy {
		t.Fatalf("%s: adapter returned %+v, Search %+v", name, old, again)
	}
}

// checkOneReadSection is the concurrent half of one matrix cell: a
// writer adds three matching objects at the query point, then removes
// them, while the reader keeps searching. Each write commits at a known
// epoch, so the marker ids an answer holds must be exactly those live at
// the epoch the answer reports — which only holds if answer and epoch
// were read in the same section.
func checkOneReadSection(t *testing.T, name string, l *epoch.Live, q plan.Query, traced bool) {
	t.Helper()
	type span struct {
		id       int
		from, to uint64 // live at epochs in [from, to)
	}
	var markers []span
	done := make(chan struct{})
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 3; i++ {
			id, ep, err := l.AddAttrsAt(q.Object, matrixMarkerBag)
			if err != nil {
				werr = err
				return
			}
			markers = append(markers, span{id: id, from: ep})
		}
		for i := range markers {
			ep, err := l.RemoveAt(markers[i].id)
			if err != nil {
				werr = err
				return
			}
			markers[i].to = ep
		}
	}()
	type seen struct {
		epoch uint64
		ids   map[int]bool
	}
	var observed []seen
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more search after the last write
		default:
		}
		if traced {
			q.Trace = obs.NewTraceAt(time.Now())
		}
		a, err := l.Search(q)
		if err != nil {
			t.Fatalf("%s: Search under writes: %v", name, err)
		}
		s := seen{epoch: a.Epoch, ids: map[int]bool{}}
		for _, id := range a.IDs {
			s.ids[id] = true
		}
		for _, nb := range a.Neighbors {
			s.ids[nb.ID] = true
		}
		observed = append(observed, s)
	}
	wg.Wait()
	if werr != nil {
		t.Fatalf("%s: writer: %v", name, werr)
	}
	for _, s := range observed {
		for _, m := range markers {
			if live := m.from <= s.epoch && s.epoch < m.to; s.ids[m.id] != live {
				t.Fatalf("%s: answer at epoch %d holds marker %d = %v, but it was live over [%d, %d)",
					name, s.epoch, m.id, s.ids[m.id], m.from, m.to)
			}
		}
	}
}

// TestFilteredAnswersAreCached pins the repair that came with the single
// cache key: a filtered range and a filtered kNN repeated at one epoch
// run their fill exactly once and the repeat is served Cached (strategy
// zero), while a different predicate, or a SetAttrsAt in between, still
// misses.
func TestFilteredAnswersAreCached(t *testing.T) {
	ds := testutil.VectorDataset(600, 4, 100, core.L2{}, 9)
	testutil.AttachTestAttrs(t, ds, 42)
	idx, err := builders()["LAESA"](ds)
	if err != nil {
		t.Fatal(err)
	}
	l := epoch.NewLive(ds, idx)
	l.SetCache(cache.New(cache.Options{}))
	hot, mid := mustParsePlan(t, `tags = "hot"`), mustParsePlan(t, `category = "mid"`)
	for _, q := range []plan.Query{
		{Kind: plan.KindRange, Object: testutil.RandomQuery(ds, 1), Radius: 30, Filter: hot},
		{Kind: plan.KindKNN, Object: testutil.RandomQuery(ds, 2), K: 6, Filter: hot},
	} {
		search := func(q plan.Query, wantCached bool, when string) plan.Answer {
			t.Helper()
			before, _ := l.CacheStats()
			comp := ds.Space().CompDists()
			a, err := l.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := l.CacheStats()
			fills, hits := after.Misses-before.Misses, after.Hits-before.Hits
			if a.Cached != wantCached || (a.Strategy == 0) != wantCached {
				t.Fatalf("kind %d, %s: cached=%v strategy=%v; want cached=%v", q.Kind, when, a.Cached, a.Strategy, wantCached)
			}
			if wantCached && (fills != 0 || hits != 1 || ds.Space().CompDists() != comp) {
				t.Fatalf("kind %d, %s: a hit ran %d fills, %d hits, %d compdists", q.Kind, when, fills, hits, ds.Space().CompDists()-comp)
			}
			if !wantCached && (fills != 1 || hits != 0) {
				t.Fatalf("kind %d, %s: a miss ran %d fills, %d hits; want exactly one fill", q.Kind, when, fills, hits)
			}
			return a
		}
		first := search(q, false, "cold")
		second := search(q, true, "repeat at the same epoch")
		if !sameAnswer(second, first) || second.Epoch != first.Epoch {
			t.Fatalf("kind %d: cached answer %+v differs from the fill %+v", q.Kind, second, first)
		}
		other := q
		other.Filter = mid
		search(other, false, "different predicate")
		search(q, true, "original predicate again")

		// Flip a member of the answer out of the predicate: the epoch
		// moves, the entry self-invalidates, the next call recomputes.
		victim := -1
		if q.Kind == plan.KindRange {
			victim = first.IDs[0]
		} else {
			victim = first.Neighbors[0].ID
		}
		if _, err := l.SetAttrsAt(victim, core.Attrs{"category": core.StringValue("mid")}); err != nil {
			t.Fatal(err)
		}
		third := search(q, false, "after SetAttrsAt")
		var want plan.Answer
		l.View(func(ds *core.Dataset, _ core.Index) { want = scan(ds, q) })
		if !sameAnswer(third, want) || third.Epoch != l.Epoch() {
			t.Fatalf("kind %d: post-SetAttrsAt answer %+v, linear scan %+v", q.Kind, third, want)
		}
	}
}
