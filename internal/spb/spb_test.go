package spb

import (
	"slices"
	"sync"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

func build(t *testing.T, ds *core.Dataset, maxD float64) (*Index, *store.Pager) {
	t.Helper()
	p := store.NewPager(512)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := New(ds, p, pv, Options{MaxDistance: maxD})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, p
}

func TestSPBMatchesBruteForce(t *testing.T) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 7)
	idx, _ := build(t, ds, 300)
	for qs := int64(0); qs < 4; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range testutil.Radii(ds, q) {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		for _, k := range []int{1, 7, 40, 400} {
			testutil.CheckKNN(t, idx, ds, q, k)
		}
	}
}

func TestSPBWordsDiscrete(t *testing.T) {
	ds := testutil.WordDataset(250, 11)
	idx, _ := build(t, ds, 40)
	for qs := int64(0); qs < 3; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range []float64{0, 1, 2, 4} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 9)
	}
}

func TestSPBCoarseGridStaysCorrect(t *testing.T) {
	// Few bits per dimension = heavy discretization; results must still
	// be exact (only pruning power degrades, §5.4).
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 9)
	p := store.NewPager(512)
	pv, _ := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	idx, err := New(ds, p, pv, Options{MaxDistance: 300, Bits: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := testutil.RandomQuery(ds, 5)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 20)
}

func TestSPBInsertDelete(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 13)
	idx, _ := build(t, ds, 300)
	for id := 0; id < 200; id += 4 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		id := ds.Insert(core.Vector{float64(i), 50, 50, 50})
		if err := idx.Insert(id); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	q := testutil.RandomQuery(ds, 2)
	for _, r := range testutil.Radii(ds, q) {
		testutil.CheckRange(t, idx, ds, q, r)
	}
	testutil.CheckKNN(t, idx, ds, q, 15)
	if idx.Len() != ds.Count() {
		t.Fatalf("Len=%d want %d", idx.Len(), ds.Count())
	}
	if err := idx.Delete(99999); err == nil {
		t.Fatal("delete of absent id should fail")
	}
}

func TestSPBOptionsValidation(t *testing.T) {
	ds := testutil.VectorDataset(50, 3, 100, core.L2{}, 1)
	p := store.NewPager(512)
	if _, err := New(ds, p, nil, Options{MaxDistance: 10}); err == nil {
		t.Fatal("no pivots must fail")
	}
	if _, err := New(ds, p, []int{0, 1}, Options{}); err == nil {
		t.Fatal("missing MaxDistance must fail")
	}
	if _, err := New(ds, p, []int{0, 1, 2, 3}, Options{MaxDistance: 10, Bits: 17}); err == nil {
		t.Fatal("4 pivots x 17 bits must fail")
	}
}

func TestSPBStats(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 23)
	idx, p := build(t, ds, 300)
	p.ResetStats()
	q := testutil.RandomQuery(ds, 1)
	if _, err := idx.KNNSearch(q, 5); err != nil {
		t.Fatal(err)
	}
	if idx.PageAccesses() == 0 {
		t.Fatal("SPB-tree queries must cost page accesses")
	}
	if idx.DiskBytes() == 0 {
		t.Fatal("SPB-tree must report disk usage")
	}
	if idx.Name() != "SPB-tree" {
		t.Fatalf("Name = %q", idx.Name())
	}
}

// TestSPBConcurrentQueries runs mixed kNN and range queries from eight
// goroutines on one index of each keyed kind (under `make race`): the
// pooled scratch, the decode cursor and the M-index band are per-query
// state, so every answer must still equal the linear scan.
func TestSPBConcurrentQueries(t *testing.T) {
	ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 17)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		q   core.Object
		ids []int
		nns []core.Neighbor
	}
	queries := make([]query, 24)
	for i := range queries {
		q := testutil.RandomQuery(ds, int64(100+i))
		queries[i] = query{q, core.BruteForceRange(ds, q, 15), core.BruteForceKNN(ds, q, 10)}
	}
	for _, kind := range []string{"SPB-tree", "M-index", "M-index*"} {
		p := store.NewPager(512)
		var idx *Index
		if kind == "SPB-tree" {
			idx, err = New(ds, p, pv, Options{MaxDistance: 300})
		} else {
			idx, err = NewMIndex(ds, p, pv, MIndexOptions{Star: kind == "M-index*", MaxNum: 64, MaxDistance: 300})
		}
		if err != nil {
			t.Fatal(err)
		}
		p.SetCacheBytes(16 * 512) // small enough that the goroutines evict each other's pages
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					c := queries[(g*7+i)%len(queries)]
					if (g+i)%2 == 0 {
						ids, err := idx.RangeSearch(c.q, 15)
						if err != nil || !slices.Equal(ids, c.ids) {
							t.Errorf("%s: goroutine %d query %d: range answer %v (err %v), want %v", kind, g, i, ids, err, c.ids)
							return
						}
						continue
					}
					nns, err := idx.KNNSearch(c.q, 10)
					if err != nil || !slices.Equal(nns, c.nns) {
						t.Errorf("%s: goroutine %d query %d: kNN answer %v (err %v), want %v", kind, g, i, nns, err, c.nns)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestSPBQueryAllocs is the steady-state allocation witness: with the
// scratch pool warm, a range or kNN query on vectors allocates its answer
// slice and nothing per node, key or candidate (budget 2).
func TestSPBQueryAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race detector instrumentation allocates; AllocsPerRun is meaningless under -race")
	}
	ds := testutil.VectorDataset(2000, 4, 100, core.L2{}, 7)
	idx, p := build(t, ds, 300)
	p.SetCacheBytes(store.DefaultCacheBytes)
	q := testutil.RandomQuery(ds, 3)
	for name, query := range map[string]func() error{
		"range": func() error { _, err := idx.RangeSearch(q, 20); return err },
		"kNN":   func() error { _, err := idx.KNNSearch(q, 10); return err },
	} {
		if err := query(); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(200, func() {
			if err := query(); err != nil {
				panic(err)
			}
		}); allocs > 2 {
			t.Errorf("%s query allocated %.1f times; budget is 2 (the answer)", name, allocs)
		}
	}
}

// TestSPBMemBytes: the in-memory footprint covers the RAF's id directory
// (16 bytes per object id) and the decode and grid-line tables, not just
// the pivots.
func TestSPBMemBytes(t *testing.T) {
	ds := testutil.VectorDataset(1000, 4, 100, core.L2{}, 5)
	idx, _ := build(t, ds, 300)
	tables := idx.fam.memBytes()
	if tables == 0 {
		t.Fatal("a 4-pivot tree must have decode and grid-line tables")
	}
	if got, floor := idx.MemBytes(), int64(4*64+1000*16)+tables; got < floor {
		t.Fatalf("MemBytes = %d, want at least pivots + directory + tables = %d", got, floor)
	}
}

// TestSPBSnapshotRejectsForeignPivot writes an SPB-tree payload over L2
// vectors whose first pivot value is a Word and requires the load to
// fail. Accepted, the first kNN query panicked converting the Word to a
// Vector.
func TestSPBSnapshotRejectsForeignPivot(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 7)
	idx, _ := build(t, ds, 300)
	idx.pivotVals[0] = core.Word("foreign")
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadIndex("SPB-tree", ds, store.NewReader(w.Bytes())); err == nil {
		t.Fatal("SPB-tree loaded a payload whose first pivot is a Word over L2 vectors")
	}
}

// TestKeyedBeyondMaxDistance inserts an object far beyond d⁺ from every
// pivot into each keyed kind and requires it to be found — by a range
// query at radius 0 around it and by a 1-NN — and every other answer to
// stay a linear scan's. The grid's top cell and the cluster band's last
// key are open-ended, so a key clamped there still bounds the distance.
func TestKeyedBeyondMaxDistance(t *testing.T) {
	for _, kind := range []string{"SPB-tree", "M-index", "M-index*"} {
		t.Run(kind, func(t *testing.T) { keyedBeyondMaxDistance(t, kind) })
	}
}

func keyedBeyondMaxDistance(t *testing.T, kind string) {
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 7)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var idx *Index
	if kind == "SPB-tree" {
		idx, err = New(ds, store.NewPager(512), pv, Options{MaxDistance: 300})
	} else {
		idx, err = NewMIndex(ds, store.NewPager(512), pv, MIndexOptions{Star: kind == "M-index*", MaxNum: 64, MaxDistance: 300})
	}
	if err != nil {
		t.Fatal(err)
	}
	far := core.Vector{5000, 5000, 5000, 5000}
	id := ds.Insert(far)
	if err := idx.Insert(id); err != nil {
		t.Fatal(err)
	}
	if got, err := idx.RangeSearch(far, 0); err != nil || !slices.Equal(got, []int{id}) {
		t.Errorf("%s: RangeSearch(far, 0) = %v (err %v), want [%d]", kind, got, err, id)
	}
	for _, q := range []core.Object{far, core.Vector{4000, 4500, 5000, 5200}, testutil.RandomQuery(ds, 3)} {
		testutil.CheckKNN(t, idx, ds, q, 1)
		testutil.CheckKNN(t, idx, ds, q, 12)
		for _, r := range []float64{0, 50, 2000, 9000} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
	}
	if err := idx.Delete(id); err != nil {
		t.Errorf("%s: Delete(far): %v", kind, err)
	}
}
