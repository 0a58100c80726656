package spb

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

func buildM(t *testing.T, ds *core.Dataset, star bool, maxNum int) (*Index, *store.Pager) {
	t.Helper()
	p := store.NewPager(512)
	pv, err := pivot.HFI(ds, 4, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, err := NewMIndex(ds, p, pv, MIndexOptions{Star: star, MaxNum: maxNum, MaxDistance: 300})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return idx, p
}

func TestMIndexMatchesBruteForce(t *testing.T) {
	for _, star := range []bool{false, true} {
		ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 7)
		idx, _ := buildM(t, ds, star, 64) // small maxnum exercises splits
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
}

func TestMIndexWords(t *testing.T) {
	for _, star := range []bool{false, true} {
		ds := testutil.WordDataset(250, 11)
		p := store.NewPager(512)
		pv, _ := pivot.HFI(ds, 3, pivot.Options{Seed: 5})
		idx, err := NewMIndex(ds, p, pv, MIndexOptions{Star: star, MaxNum: 64, MaxDistance: 40})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		q := testutil.RandomQuery(ds, 3)
		for _, r := range []float64{0, 1, 2, 4} {
			testutil.CheckRange(t, idx, ds, q, r)
		}
		testutil.CheckKNN(t, idx, ds, q, 9)
	}
}

func TestMIndexNames(t *testing.T) {
	ds := testutil.VectorDataset(60, 3, 100, core.L2{}, 1)
	plain, _ := buildM(t, ds, false, 0)
	if plain.Name() != "M-index" {
		t.Fatalf("Name = %q", plain.Name())
	}
	ds2 := testutil.VectorDataset(60, 3, 100, core.L2{}, 1)
	star, _ := buildM(t, ds2, true, 0)
	if star.Name() != "M-index*" {
		t.Fatalf("Name = %q", star.Name())
	}
}

func TestMIndexInsertDelete(t *testing.T) {
	for _, star := range []bool{false, true} {
		ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 13)
		idx, _ := buildM(t, ds, star, 32)
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
	}
}

func TestMIndexStarFewerPAOnKNN(t *testing.T) {
	// Fig 15: MkNNQ via the plain M-index re-traverses the index per
	// radius step, so M-index* should cost no more page accesses.
	mk := func(star bool) int64 {
		ds := testutil.VectorDataset(600, 4, 100, core.L2{}, 17)
		idx, p := buildM(t, ds, star, 64)
		q := testutil.RandomQuery(ds, 9)
		p.ResetStats()
		if _, err := idx.KNNSearch(q, 10); err != nil {
			t.Fatal(err)
		}
		return idx.PageAccesses()
	}
	plain, star := mk(false), mk(true)
	if star > plain {
		t.Fatalf("M-index* kNN PA (%d) should not exceed M-index (%d)", star, plain)
	}
}

func TestMIndexValidation(t *testing.T) {
	// M-index* validation must not change range results, only costs.
	dsA := testutil.VectorDataset(300, 4, 100, core.L2{}, 19)
	a, _ := buildM(t, dsA, false, 64)
	dsB := testutil.VectorDataset(300, 4, 100, core.L2{}, 19)
	b, _ := buildM(t, dsB, true, 64)
	q := testutil.RandomQuery(dsA, 4)
	for _, r := range []float64{5, 20, 60} {
		ra, err := a.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.RangeSearch(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("r=%v: plain %d results, star %d", r, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("r=%v: result %d differs (%d vs %d)", r, i, ra[i], rb[i])
			}
		}
	}
}

func TestMIndexRequiresTwoPivots(t *testing.T) {
	ds := testutil.VectorDataset(50, 3, 100, core.L2{}, 1)
	p := store.NewPager(512)
	if _, err := NewMIndex(ds, p, []int{0}, MIndexOptions{MaxDistance: 100}); err == nil {
		t.Fatal("one pivot must be rejected (hyperplane partitioning needs two)")
	}
	if _, err := NewMIndex(ds, p, []int{0, 1}, MIndexOptions{}); err == nil {
		t.Fatal("missing MaxDistance must be rejected")
	}
}

// TestMIndexCostsRepeatable: the cluster tree is walked in pivot order, so
// two builds over the same data, each queried twice by the same battery,
// spend identical compdists and page accesses — with the page cache off
// and at DefaultCacheBytes, where page accesses depend on the order pages
// are read in — and return identical answers, for M-index and M-index*.
func TestMIndexCostsRepeatable(t *testing.T) {
	type costs struct {
		cd, pa  []int64
		answers [][]int
	}
	battery := func(idx *Index, p *store.Pager, ds *core.Dataset) costs {
		var c costs
		record := func(ids []int) {
			c.cd = append(c.cd, ds.Space().CompDists())
			c.pa = append(c.pa, p.PageAccesses())
			c.answers = append(c.answers, ids)
		}
		for _, cache := range []int{0, store.DefaultCacheBytes} {
			p.SetCacheBytes(cache)
			for qs := int64(0); qs < 6; qs++ {
				q := testutil.RandomQuery(ds, qs)
				for _, k := range []int{1, 10, 60} {
					ds.Space().ResetCompDists()
					p.ResetStats()
					ns, err := idx.KNNSearch(q, k)
					if err != nil {
						t.Fatal(err)
					}
					ids := make([]int, len(ns))
					for i, nb := range ns {
						ids[i] = nb.ID
					}
					record(ids)
				}
				for _, r := range []float64{8, 25} {
					ds.Space().ResetCompDists()
					p.ResetStats()
					ids, err := idx.RangeSearch(q, r)
					if err != nil {
						t.Fatal(err)
					}
					record(ids)
				}
			}
		}
		return c
	}
	for _, star := range []bool{false, true} {
		var runs []costs
		for b := 0; b < 2; b++ {
			ds := testutil.VectorDataset(1200, 4, 100, core.L2{}, 23)
			idx, p := buildM(t, ds, star, 48)
			for range 2 {
				runs = append(runs, battery(idx, p, ds))
			}
		}
		for i, run := range runs[1:] {
			if !reflect.DeepEqual(run, runs[0]) {
				t.Fatalf("star=%v: run %d spent or answered differently from run 0:\n%v\n%v", star, i+1, run, runs[0])
			}
		}
	}
}

// TestMIndexSnapshotRejectsCrafted loads a three-pivot M-index payload
// whose cluster section (a root over three leaves) is rewritten: as
// written it loads, and each crafted section must fail to load.
func TestMIndexSnapshotRejectsCrafted(t *testing.T) {
	ds := testutil.VectorDataset(300, 4, 100, core.L2{}, 7)
	pv := testutil.SpreadPivots(ds, 3)
	idx, err := NewMIndex(ds, store.NewPager(512), pv, MIndexOptions{MaxDistance: 300})
	if err != nil {
		t.Fatal(err)
	}
	f := idx.fam.(*clusters)
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatal(err)
	}
	sec := store.NewWriter()
	f.section(sec)
	handle := w.Bytes()[:len(w.Bytes())-len(sec.Bytes())]

	// A leaf as the section writes it; tag 2 instead writes an internal
	// cluster over one leaf at pivot sub.
	type leaf struct {
		tag, sub, slot, count int
		minD, maxD            float64
		lo, hi                []float64
	}
	var leaves []leaf
	for _, c := range f.root.children {
		leaves = append(leaves, leaf{1, 0, c.slot, c.count, c.minD, c.maxD, c.mbb.Lo, c.mbb.Hi})
	}
	section := func(width int, leaves []leaf) []byte {
		w := store.NewWriter()
		put := func(c leaf) {
			w.U8(1)
			w.U32(uint32(c.slot))
			w.U32(uint32(c.count))
			w.F64(c.minD)
			w.F64(c.maxD)
			w.Floats(c.lo)
			w.Floats(c.hi)
		}
		w.U32(3)
		w.U32(uint32(width))
		for _, c := range leaves {
			switch c.tag {
			case 1:
				put(c)
			case 2:
				w.U8(2)
				w.U32(3)
				for pi := range 3 {
					if pi == c.sub {
						put(c)
					} else {
						w.U8(0)
					}
				}
			default:
				w.U8(uint8(c.tag))
			}
		}
		return append(append([]byte(nil), handle...), w.Bytes()...)
	}
	with := func(i int, edit func(*leaf)) []leaf {
		out := slices.Clone(leaves)
		edit(&out[i])
		return out
	}
	for name, payload := range map[string][]byte{
		"as written":       section(3, leaves),
		"one level deeper": section(3, with(0, func(c *leaf) { c.tag, c.sub = 2, 1 })),
	} {
		if _, _, err := loadIndex("M-index", ds, store.NewReader(payload)); err != nil {
			t.Fatalf("%s: the section fails to load: %v", name, err)
		}
	}
	for name, payload := range map[string][]byte{
		"child table 4 wide":     section(4, append(slices.Clone(leaves), leaf{tag: 0})),
		"child table 2 wide":     section(2, leaves[:2]),
		"child on its path":      section(3, with(0, func(c *leaf) { c.tag, c.sub = 2, 0 })),
		"unknown tag":            section(3, with(1, func(c *leaf) { c.tag = 3 })),
		"slot out of range":      section(3, with(2, func(c *leaf) { c.slot = 3 })),
		"slot reached twice":     section(3, with(2, func(c *leaf) { c.slot = 0 })),
		"count off by one":       section(3, with(0, func(c *leaf) { c.count++ })),
		"minD negative":          section(3, with(0, func(c *leaf) { c.minD = -1 })),
		"maxD NaN":               section(3, with(0, func(c *leaf) { c.maxD = math.NaN() })),
		"MBB 2 wide":             section(3, with(1, func(c *leaf) { c.lo = c.lo[:2] })),
		"internal child counted": section(3, with(0, func(c *leaf) { c.tag, c.sub = 2, 1; c.count++ })),
	} {
		if _, _, err := loadIndex("M-index", ds, store.NewReader(payload)); err == nil {
			t.Errorf("%s: the crafted section loaded", name)
		}
	}
}
