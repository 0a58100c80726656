package table

import (
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/plan"
	"metricindex/internal/testutil"
)

// laesaKNNAllocBudget bounds the allocations of one uncached LAESA kNN
// query (measured 1/op: the answer; the query distances, the block
// bounds and heap, the survivors and the candidate heap all come from
// the scratch pool). The budget leaves headroom for toolchain drift; a
// regression that adds per-block or per-candidate allocation blows far
// past it.
const laesaKNNAllocBudget = 2

func TestLAESAKNNSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q, 10); err != nil {
			panic(err)
		}
	})
	if allocs > laesaKNNAllocBudget {
		t.Fatalf("LAESA.KNNSearch allocated %.1f times per query; budget is %d", allocs, laesaKNNAllocBudget)
	}
}

// TestLAESAFlatKNNHotLoopZeroAllocs is the steady-state witness of the
// flat kernel path: with the scratch pool warm, one kNN scan — query-
// pivot batch, column sweep, flat verification — performs zero
// allocations, with and without a pushed-down accept test, on 4-D L2
// rows (one cache line each), on 20-D L2 rows (a float64 mirror wide
// enough that each verification prefetches the next survivor's row) and
// on 20-D and 282-D L1 rows, whose mirror is narrowed: a candidate is
// rejected on its 8-bit codes or verified on its object's float64
// coordinates, and the 282-D case witnesses both. Only assembling the
// answer slice (Result) allocates, and it stays outside the measured
// loop. The scan and its callees carry //metriclint:noalloc, so a
// regression fails `make lint` too.
func TestLAESAFlatKNNHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	for _, c := range []struct {
		dim int
		m   core.Metric
	}{{4, core.L2{}}, {20, core.L2{}}, {20, core.L1{}}, {282, core.L1{}}} {
		ds := testutil.VectorDataset(500, c.dim, 100, c.m, 7)
		idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
		if err != nil {
			t.Fatal(err)
		}
		if !idx.tab.FlatArmed() {
			t.Fatal("flat path not armed on a pure-vector dataset")
		}
		_, l1 := c.m.(core.L1)
		if narrowed := idx.tab.flat.Narrowed(); narrowed != l1 {
			t.Fatalf("%d-D %T: mirror narrowed = %v", c.dim, c.m, narrowed)
		}
		var q core.Object = ds.Objects()[42]
		ns, err := idx.KNNSearch(q, 10) // warm the scratch pool
		if err != nil || len(ns) != 10 {
			t.Fatalf("%d-D: the witness query answers %d neighbours (%v)", c.dim, len(ns), err)
		}
		if c.dim == 282 {
			// Every answer was offered by the exact fallback; some row
			// must be one the codes reject at the final radius.
			var sc core.Scratch
			qc, eq, ok := idx.tab.flat.Code(q.(core.Vector), &sc)
			bound := idx.tab.kern.Bound(ns[len(ns)-1].Dist)
			rejected := 0
			for row := range idx.tab.Len() {
				if !ok {
					break
				}
				if sd, e := idx.tab.flat.Bounds(qc, eq, row); idx.tab.flat.Above(sd, e, bound) {
					rejected++
				}
			}
			if rejected == 0 {
				t.Fatalf("%d-D: no row is rejected on its codes", c.dim)
			}
		}
		h := core.NewKNNHeap(10)
		for name, accept := range map[string]core.Accept{"unfiltered": nil, "accept": func(id int) bool { return id%3 != 0 }} {
			allocs := testing.AllocsPerRun(200, func() {
				h.Reset(10)
				if err := idx.tab.ScanKNN(h, q, accept); err != nil {
					panic(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%d-D %T %s: flat kNN hot loop allocated %.1f times per query; want 0", c.dim, c.m, name, allocs)
			}
		}
	}
}

// TestLAESAFilteredProbeZeroAllocs is the word pass's witness: with the
// scratch pool warm and the predicate compiled (a plan.Matcher, the
// probe strategy's accept test), one filtered kNN scan and one filtered
// range scan over several blocks — the survivors' accept test read from
// the table's row-ordered attribute copy 64 rows at a time — allocate
// nothing, for every predicate of the harness's battery. The answers
// stay outside the measured loop.
func TestLAESAFilteredProbeZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(4*zoneRows, 4, 100, core.L2{}, 7)
	testutil.AttachTestAttrs(t, ds, 5)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.tab
	var q core.Object = ds.Objects()[42]
	h := core.NewKNNHeap(10)
	for _, src := range testutil.FilterPredicates() {
		p, err := plan.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		m := p.Compile(ds)
		if tab.wordsOf(m) == nil {
			t.Fatalf("%q: the probe does not take the word pass", src)
		}
		knn := func() {
			h.Reset(10)
			if err := tab.ScanKNN(h, q, m); err != nil {
				panic(err)
			}
		}
		scanRange := func() {
			sc := tab.scratch.Get()
			s := tab.begin(sc, q, m)
			s.r, s.res = 20, sc.Keys[:0]
			if err := s.run(); err != nil {
				panic(err)
			}
			sc.Keys = s.res[:0]
			tab.scratch.Put(sc)
		}
		for name, scan := range map[string]func(){"kNN": knn, "range": scanRange} {
			if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
				t.Fatalf("%q: filtered %s probe allocated %.1f times per query; want 0", src, name, allocs)
			}
		}
		m.Release()
	}
}

// TestLAESAFlatRangeHotLoopZeroAllocs is the range query's witness: with
// the scratch pool warm, one range scan — query-pivot batch, zone heap,
// column sweeps, flat verification, the ids collected into the scratch —
// performs zero allocations, with and without a pushed-down accept test,
// over a table of several blocks. The answer slice is the range query's
// one allocation (TestLAESARangeAllocsOnce) and stays outside the
// measured loop.
func TestLAESAFlatRangeHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(4*zoneRows, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.tab
	var q core.Object = ds.Objects()[42]
	scanRange := func(accept core.Accept) int {
		sc := tab.scratch.Get()
		s := tab.begin(sc, q, accept)
		s.r, s.res = 20, sc.Keys[:0]
		if err := s.run(); err != nil {
			panic(err)
		}
		sc.Keys = s.res[:0]
		tab.scratch.Put(sc)
		return len(s.res)
	}
	if scanRange(nil) == 0 { // warm the scratch pool
		t.Fatal("the witness query answers nothing")
	}
	for name, accept := range map[string]core.Accept{"unfiltered": nil, "accept": func(id int) bool { return id%3 != 0 }} {
		allocs := testing.AllocsPerRun(200, func() { scanRange(accept) })
		if allocs != 0 {
			t.Fatalf("%s: flat range hot loop allocated %.1f times per query; want 0", name, allocs)
		}
	}
}

// TestLAESARangeAllocsOnce witnesses that a range query allocates exactly
// its answer, here over 1 000 ids: the ids are collected in the scratch,
// radix-ordered there, and copied into one slice of their length.
func TestLAESARangeAllocsOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(8*zoneRows, 4, 100, core.L2{}, 7)
	idx, err := NewLAESA(ds, []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	const r = 70
	if ids, err := idx.RangeSearch(q, r); err != nil || len(ids) < 1000 { // warms the scratch pool
		t.Fatalf("the witness query answers %d ids (%v); want at least 1 000", len(ids), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := idx.RangeSearch(q, r); err != nil {
			panic(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("LAESA.RangeSearch allocated %.1f times per query; want 1, the answer", allocs)
	}
}

// eptKNNAllocBudget bounds the allocations of one uncached EPT kNN
// query (measured 9/op: query-pivot distances, the per-group scan
// state, the candidate heap, the sorted answer, and sort.Slice
// internals). Headroom covers toolchain drift; per-candidate allocation
// regressions blow far past it.
const eptKNNAllocBudget = 12

func TestEPTKNNSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := NewEPT(ds, EPTOptions{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := idx.KNNSearch(q, 10); err != nil {
			panic(err)
		}
	})
	if allocs > eptKNNAllocBudget {
		t.Fatalf("EPT KNNSearch allocated %.1f times per query; budget is %d", allocs, eptKNNAllocBudget)
	}
}

// TestEPTFlatKNNHotLoopZeroAllocs witnesses that the flat-path kNN scan
// (pool batch, indexed column sweep, flat verification) runs without
// allocating once the scratch pool is warm, with and without a
// pushed-down accept test; see the LAESA twin.
func TestEPTFlatKNNHotLoopZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	idx, err := NewEPT(ds, EPTOptions{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.tab.FlatArmed() {
		t.Fatal("flat path not armed on a pure-vector dataset")
	}
	var q core.Object = ds.Objects()[42]
	if _, err := idx.KNNSearch(q, 10); err != nil { // warm the scratch pool
		t.Fatal(err)
	}
	h := core.NewKNNHeap(10)
	for name, accept := range map[string]core.Accept{"unfiltered": nil, "accept": func(id int) bool { return id%3 != 0 }} {
		allocs := testing.AllocsPerRun(200, func() {
			h.Reset(10)
			if err := idx.tab.ScanKNN(h, q, accept); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: flat kNN hot loop allocated %.1f times per query; want 0", name, allocs)
		}
	}
}

// TestEPTRangeAllocsOnce witnesses that a range query allocates exactly
// its answer, here over 1 000 ids: the ids are collected and radix-ordered
// in the scratch and copied out once; see the LAESA twin.
func TestEPTRangeAllocsOnce(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(3000, 4, 100, core.L2{}, 7)
	idx, err := NewEPT(ds, EPTOptions{L: 5, Radius: 20})
	if err != nil {
		t.Fatal(err)
	}
	var q core.Object = ds.Objects()[42]
	const r = 75
	if ids, err := idx.RangeSearch(q, r); err != nil || len(ids) < 1000 { // warms the scratch pool
		t.Fatalf("the witness query answers %d ids (%v); want at least 1 000", len(ids), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := idx.RangeSearch(q, r); err != nil {
			panic(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("EPT RangeSearch allocated %.1f times per query; want 1, the answer", allocs)
	}
}
