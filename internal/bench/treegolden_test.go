package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/mtree"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// treeCosts is what one best-first family spent and answered on the fixed
// kNN battery of TestTreeGoldenCosts: compdists and page accesses with the
// page cache off ([0]) and at store.DefaultCacheBytes ([1]), and the
// SHA-256 over every answer of both legs. The in-memory trees spend no
// page accesses. With the cache on, page accesses depend on the order
// the traversal reads pages in — at equal lower bounds, on the order its
// priority queue pops them — so these constants pin that order too.
type treeCosts struct {
	compdists, pa [2]int64
	answers       string
}

// treeFamily builds one best-first family over a dataset and its pivots;
// the pager is nil for the in-memory trees.
type treeFamily struct {
	name  string
	build func(ds *core.Dataset, pv []int, maxD float64) (testutil.Searcher, *store.Pager, error)
}

var treeFamilies = []treeFamily{
	{"BKT", func(ds *core.Dataset, _ []int, maxD float64) (testutil.Searcher, *store.Pager, error) {
		idx, err := ptree.NewBKT(ds, ptree.Options{Seed: 5, MaxDistance: maxD})
		return idx, nil, err
	}},
	{"FQT", func(ds *core.Dataset, pv []int, maxD float64) (testutil.Searcher, *store.Pager, error) {
		idx, err := ptree.NewFQT(ds, pv, ptree.Options{MaxDistance: maxD})
		return idx, nil, err
	}},
	{"MVPT", func(ds *core.Dataset, pv []int, _ float64) (testutil.Searcher, *store.Pager, error) {
		idx, err := ptree.NewMVPT(ds, pv, ptree.Options{})
		return idx, nil, err
	}},
	{"PM-tree", func(ds *core.Dataset, pv []int, _ float64) (testutil.Searcher, *store.Pager, error) {
		p := store.NewPager(512)
		idx, err := mtree.NewPMTree(ds, p, pv, 7, 0)
		return idx, p, err
	}},
	{"OmniR-tree", func(ds *core.Dataset, pv []int, maxD float64) (testutil.Searcher, *store.Pager, error) {
		p := store.NewPager(512)
		idx, err := mtree.NewOmniRTree(ds, p, pv, maxD, 0)
		return idx, p, err
	}},
	{"M-index", func(ds *core.Dataset, pv []int, maxD float64) (testutil.Searcher, *store.Pager, error) {
		p := store.NewPager(512)
		idx, err := spb.NewMIndex(ds, p, pv, spb.MIndexOptions{MaxNum: 48, MaxDistance: maxD})
		return idx, p, err
	}},
	{"M-index*", func(ds *core.Dataset, pv []int, maxD float64) (testutil.Searcher, *store.Pager, error) {
		p := store.NewPager(512)
		idx, err := spb.NewMIndex(ds, p, pv, spb.MIndexOptions{Star: true, MaxNum: 48, MaxDistance: maxD})
		return idx, p, err
	}},
}

// treeGoldenDataset is one pinned shape: integer vectors under the
// discrete L∞ metric (distances tie often, so lower bounds do too), or
// words under edit distance. Both are discrete, as BKT and FQT need.
func treeGoldenDataset(shape string) (*core.Dataset, float64) {
	if shape == "words" {
		return testutil.WordDataset(4000, 11), 40
	}
	return testutil.IntVectorDataset(4000, 4, 64, 7), 80
}

// treeGolden holds the constants recorded at the parent of the switch of
// every best-first traversal to core.MinHeap; the M-index* ones were
// re-pinned when a leaf's candidates of equal bound began to verify in
// leaf order.
var treeGolden = map[string]treeCosts{
	"BKT/ints":         {[2]int64{16282, 16282}, [2]int64{0, 0}, treeAnswersInts},
	"BKT/words":        {[2]int64{47951, 47951}, [2]int64{0, 0}, treeAnswersWords},
	"FQT/ints":         {[2]int64{12924, 12924}, [2]int64{0, 0}, treeAnswersInts},
	"FQT/words":        {[2]int64{45117, 45117}, [2]int64{0, 0}, treeAnswersWords},
	"MVPT/ints":        {[2]int64{8362, 8362}, [2]int64{0, 0}, treeAnswersInts},
	"MVPT/words":       {[2]int64{44411, 44411}, [2]int64{0, 0}, treeAnswersWords},
	"PM-tree/ints":     {[2]int64{12880, 12880}, [2]int64{6805, 5084}, treeAnswersInts},
	"PM-tree/words":    {[2]int64{53429, 53429}, [2]int64{21755, 21303}, treeAnswersWords},
	"OmniR-tree/ints":  {[2]int64{3275, 3275}, [2]int64{7926, 1685}, treeAnswersInts},
	"OmniR-tree/words": {[2]int64{36345, 36345}, [2]int64{79258, 5494}, treeAnswersWords},
	"M-index/ints":     {[2]int64{10378, 10378}, [2]int64{104093, 34780}, treeAnswersInts},
	"M-index/words":    {[2]int64{40544, 40544}, [2]int64{341776, 105496}, treeAnswersWords},
	"M-index*/ints":    {[2]int64{5579, 5579}, [2]int64{52839, 17951}, treeAnswersInts},
	"M-index*/words":   {[2]int64{44599, 44599}, [2]int64{172711, 52671}, treeAnswersWords},
}

// Every family answers the battery identically: kNN ties break by id.
const (
	treeAnswersInts  = "cfff8ddea091c8423ff0400ce0e8159fe2c1c54e942b6482a6d7f502ce539a04"
	treeAnswersWords = "9904d4c6a77a99f9e545d62a986acace934c5f71b42f0c83166cdc7be289cd79"
)

// treeGoldenRun builds family fam over shape and runs the battery twice.
func treeGoldenRun(t *testing.T, fam treeFamily, shape string) []treeCosts {
	t.Helper()
	ds, maxD := treeGoldenDataset(shape)
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	idx, p, err := fam.build(ds, pv, maxD)
	if err != nil {
		t.Fatalf("%s: build: %v", fam.name, err)
	}
	var queries []core.Object
	for qs := int64(0); qs < 8; qs++ {
		queries = append(queries, testutil.RandomQuery(ds, qs))
	}
	leg := func(answers hash.Hash) (compdists, pa int64) {
		if p != nil {
			p.ResetStats()
		}
		ds.Space().ResetCompDists()
		for _, q := range queries {
			for _, k := range []int{1, 10, 50} {
				ns, err := idx.KNNSearch(q, k)
				if err != nil {
					t.Fatalf("%s: KNNSearch: %v", fam.name, err)
				}
				for _, nb := range ns {
					_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
					_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(-1))
			}
		}
		if p != nil {
			pa = p.PageAccesses()
		}
		return ds.Space().CompDists(), pa
	}
	var runs []treeCosts
	for range 2 {
		var c treeCosts
		answers := sha256.New()
		for i, cache := range []int{0, store.DefaultCacheBytes} {
			if p != nil {
				p.SetCacheBytes(cache)
			}
			c.compdists[i], c.pa[i] = leg(answers)
		}
		c.answers = fmt.Sprintf("%x", answers.Sum(nil))
		runs = append(runs, c)
	}
	return runs
}

// TestTreeGoldenCosts pins, for every family whose kNN is a best-first
// traversal of a priority queue — BKT, FQT, MVPT, the PM-tree, the
// OmniR-tree, M-index and M-index* — on integer vectors and on words, the
// exact kNN compdists, the page accesses with the page cache off and on,
// and every answer. Two builds, each queried by the battery twice, must
// agree. (The pivot tables and the SPB-tree have golden tests of their
// own.)
func TestTreeGoldenCosts(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("one goroutine, nothing for the race detector; ~10x slower under it")
	}
	for _, fam := range treeFamilies {
		for _, shape := range []string{"ints", "words"} {
			runs := append(treeGoldenRun(t, fam, shape), treeGoldenRun(t, fam, shape)...)
			for i, run := range runs[1:] {
				if run != runs[0] {
					t.Errorf("%s/%s: run %d spent or answered differently from run 0:\n%+v\n%+v", fam.name, shape, i+1, run, runs[0])
				}
			}
			key := fam.name + "/" + shape
			if want, ok := treeGolden[key]; !ok || runs[0] != want {
				t.Errorf("%s: costs moved\n got  %q: {[2]int64{%d, %d}, [2]int64{%d, %d}, %q},\n want %+v", key, key,
					runs[0].compdists[0], runs[0].compdists[1], runs[0].pa[0], runs[0].pa[1], runs[0].answers, want)
			}
		}
	}
}
