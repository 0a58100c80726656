package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/pivot"
	"metricindex/internal/ptree"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// snapshotTree is a pivot tree that writes a snapshot payload.
type snapshotTree interface {
	core.Index
	EncodeSnapshot(w *store.Writer) error
}

// pivotTreeFamily builds one of the pivot trees — BKT, FQT, VPT, MVPT —
// with its default options at a given worker count.
type pivotTreeFamily struct {
	name  string
	build func(ds *core.Dataset, pv []int, maxD float64, workers int) (snapshotTree, error)
}

var pivotTreeFamilies = []pivotTreeFamily{
	{"BKT", func(ds *core.Dataset, _ []int, maxD float64, workers int) (snapshotTree, error) {
		return ptree.NewBKT(ds, ptree.Options{Seed: 5, MaxDistance: maxD, Workers: workers})
	}},
	{"FQT", func(ds *core.Dataset, pv []int, maxD float64, workers int) (snapshotTree, error) {
		return ptree.NewFQT(ds, pv, ptree.Options{MaxDistance: maxD, Workers: workers})
	}},
	{"VPT", func(ds *core.Dataset, pv []int, _ float64, workers int) (snapshotTree, error) {
		return ptree.NewMVPT(ds, pv, ptree.Options{Arity: 2, Workers: workers})
	}},
	{"MVPT", func(ds *core.Dataset, pv []int, _ float64, workers int) (snapshotTree, error) {
		return ptree.NewMVPT(ds, pv, ptree.Options{Workers: workers})
	}},
}

// Snapshot payload hashes, recorded at the parent of the one pivot tree:
// a fresh build at Workers 0 and 4 (MVPT and VPT write the worker count
// into their payload, BKT and FQT write it too), and the Workers-0 build
// after treeChurn.
var treePayloadGolden = map[string]string{
	"BKT/ints/w0":      "e1ce0998f2f9906bc11aefc7850dc15989ea7c07c2753cbf6d4d840338eebdc5",
	"BKT/ints/churn":   "c773e812251a0a90037f1e377748f5aab08be9d6b0d875570e80ee75822a5aac",
	"BKT/ints/w4":      "091cbb93d1df45523a66b6c9c880fc2b464585c28702821a09d8b511d2eddb35",
	"BKT/words/w0":     "1140900a865ba703dabfb706b8cb292648c63389bb2a191f846357c78950fc15",
	"BKT/words/churn":  "6d887655ae3201cacdb737843c87537c6900cdecb7e46c4a7d909fd7e8e48a22",
	"BKT/words/w4":     "fa4e17ff93f8cd09e903e33b33a1d8f3ef61cbfcaad957ce47ad554fa4cfb550",
	"FQT/ints/w0":      "5cf355a1252b6a1c8a3ef3f090e54521129fcfcfadf4488e2047f7caf8bcd4ec",
	"FQT/ints/churn":   "3a4f13324816cb6d5c8f54e0b5608e5196cec58a94fe296d927a1894cecb4681",
	"FQT/ints/w4":      "0821e9db07e070c47457ec86e1e7f0c438a626f81302d56ea72a995472904019",
	"FQT/words/w0":     "8319b461923cbff8187662d4ed4081bbf1ed4fc7021905105c0a248304306636",
	"FQT/words/churn":  "2337a46787db21c87d2e327ea2da673fadca773e94cbeafcc92d5824c1b3d70b",
	"FQT/words/w4":     "98e2911af983f80a5197592dce852f74d262ae9ced6f6eb252547f05ddb80e3d",
	"VPT/ints/w0":      "bdcd37e7cdc04af17b31b8626d5208fbd14bb38ab48a53e635d31bfe4b0465b8",
	"VPT/ints/churn":   "c41a6d92bd13fcd3a2cb449fca3ee40ccf4795444e4238e4ae2afc37bf1be75c",
	"VPT/ints/w4":      "78239760dbfec108d26d6fa04e99f84845254140d9e07302057f744a7ab65e0f",
	"VPT/words/w0":     "b8b5d3f520d6ea0240d72e71f62096ae93cea31b6d0a4d41c37e07de4a101181",
	"VPT/words/churn":  "27b5556bde4c9dfed11e13878b96a4c74b97194f59c44ab9300c0ed8ab8ada99",
	"VPT/words/w4":     "a49e61bc87d9716eb4c3fbbadd2853e2c1b3f0764a6169a965361328b9e67ca0",
	"MVPT/ints/w0":     "16839dd5dd537545cd27ec33e090329aece319b9d675204f257e9767862da9f9",
	"MVPT/ints/churn":  "86921a21e70fdf66fc697514e32b1d33416d90cf57dd5d9953ceb1cb8bb0be74",
	"MVPT/ints/w4":     "26b17c9beb3f9021a1b02b24ca29c07fb9103298478fe60a56583948bf8b77f1",
	"MVPT/words/w0":    "ff595890b10f5ab0b77988372ebc6248e0fe954fbb01ca499b215168a32c5af7",
	"MVPT/words/churn": "d60ce76f02536b6af6fd1b0949ce20aa10af719e5ef77928639319d0e59296c3",
	"MVPT/words/w4":    "40526846cad78ec9ea829f679d61afb062ca23a22f20ec9d7d8923bd076f6f21",
}

// Range compdists and the SHA-256 of every answer of treeRangeBattery.
var treeRangeGolden = map[string]struct {
	compdists int64
	answers   string
}{
	"BKT/ints":   {9845, "8cc0a3746a4db8f1d2f9e4ecf5b815d5b0cc26b5bfd6320e57ead70e035be0ce"},
	"BKT/words":  {48108, "a7a89676381427ab88f508bffacf0cb3bbb0255675da5d9d74534146d19aab64"},
	"FQT/ints":   {8180, "8cc0a3746a4db8f1d2f9e4ecf5b815d5b0cc26b5bfd6320e57ead70e035be0ce"},
	"FQT/words":  {42414, "a7a89676381427ab88f508bffacf0cb3bbb0255675da5d9d74534146d19aab64"},
	"VPT/ints":   {7060, "8cc0a3746a4db8f1d2f9e4ecf5b815d5b0cc26b5bfd6320e57ead70e035be0ce"},
	"VPT/words":  {43479, "a7a89676381427ab88f508bffacf0cb3bbb0255675da5d9d74534146d19aab64"},
	"MVPT/ints":  {5287, "8cc0a3746a4db8f1d2f9e4ecf5b815d5b0cc26b5bfd6320e57ead70e035be0ce"},
	"MVPT/words": {41958, "a7a89676381427ab88f508bffacf0cb3bbb0255675da5d9d74534146d19aab64"},
}

// The compdists AblationMVPTArity reports per arity on LA (n = 3000, 20
// queries).
var treeArityGolden = map[int]int64{2: 77, 3: 78, 5: 57, 8: 63, 16: 85}

func payloadHash(t *testing.T, idx snapshotTree) string {
	t.Helper()
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", idx.Name(), err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))
}

// treeChurn deletes every fifth of the first 1 000 ids (among them 6 of
// the integer BKT's node pivots and 11 of the words BKT's, which keep
// routing), then inserts 150 objects of a second generator, a tight
// cluster (150 vectors in [0, 3)^4, or 100 two-letter words) and 20
// copies of object 1. The cluster and the copies overflow leaves: BKT,
// MVPT and VPT split leaves on both shapes and FQT on the integer one,
// and every one of those splits separates its ids (none is the
// degenerate split of a leaf of duplicates).
func treeChurn(t *testing.T, idx core.Index, ds *core.Dataset, shape string) {
	t.Helper()
	for id := 0; id < 1000; id += 5 {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("%s: Delete(%d): %v", idx.Name(), id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var objs []core.Object
	if shape == "words" {
		objs = testutil.WordDataset(150, 99).Objects()
		for _, o := range testutil.WordDataset(1200, 98).Objects() {
			if w := o.(core.Word); len(w) == 2 && len(objs) < 250 {
				objs = append(objs, o)
			}
		}
	} else {
		objs = append(testutil.IntVectorDataset(150, 4, 64, 99).Objects(),
			testutil.IntVectorDataset(150, 4, 3, 98).Objects()...)
	}
	for range 20 {
		objs = append(objs, ds.Object(1))
	}
	for _, o := range objs {
		id := ds.Insert(o)
		if err := idx.Insert(id); err != nil {
			t.Fatalf("%s: Insert(%d): %v", idx.Name(), id, err)
		}
	}
}

// treeRangeBattery runs eight range queries at three radii and returns
// their compdists and the hash of every answer.
func treeRangeBattery(t *testing.T, idx core.Index, ds *core.Dataset, shape string) (int64, string) {
	t.Helper()
	radii := []float64{0, 4, 10}
	if shape == "words" {
		radii = []float64{1, 2, 3}
	}
	h := sha256.New()
	ds.Space().ResetCompDists()
	for qs := int64(0); qs < 8; qs++ {
		q := testutil.RandomQuery(ds, qs)
		for _, r := range radii {
			ids, err := idx.RangeSearch(q, r)
			if err != nil {
				t.Fatalf("%s: RangeSearch: %v", idx.Name(), err)
			}
			for _, id := range ids {
				_ = binary.Write(h, binary.LittleEndian, int64(id))
			}
			_ = binary.Write(h, binary.LittleEndian, int64(-1))
		}
	}
	return ds.Space().CompDists(), fmt.Sprintf("%x", h.Sum(nil))
}

// TestTreePayloadGolden pins, for BKT, FQT, VPT and MVPT on integer
// vectors and words: the SHA-256 of the snapshot payload of a fresh build
// at Workers 0 and 4 and after treeChurn, and the range compdists and
// answers of a fresh build. Every constant was recorded before the three
// trees became one.
func TestTreePayloadGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("one goroutine per build leg; slow under the race detector")
	}
	for _, fam := range pivotTreeFamilies {
		for _, shape := range []string{"ints", "words"} {
			key := fam.name + "/" + shape
			for _, workers := range []int{0, 4} {
				ds, maxD := treeGoldenDataset(shape)
				pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
				if err != nil {
					t.Fatalf("HFI: %v", err)
				}
				idx, err := fam.build(ds, pv, maxD, workers)
				if err != nil {
					t.Fatalf("%s: build: %v", key, err)
				}
				wkey := fmt.Sprintf("%s/w%d", key, workers)
				if got := payloadHash(t, idx); got != treePayloadGolden[wkey] {
					t.Errorf("%s: payload hash moved\n got  %q: %q,", wkey, wkey, got)
				}
				if workers != 0 {
					continue
				}
				cd, answers := treeRangeBattery(t, idx, ds, shape)
				if want := treeRangeGolden[key]; cd != want.compdists || answers != want.answers {
					t.Errorf("%s: range costs moved\n got  %q: {%d, %q},", key, key, cd, answers)
				}
				treeChurn(t, idx, ds, shape)
				ckey := key + "/churn"
				if got := payloadHash(t, idx); got != treePayloadGolden[ckey] {
					t.Errorf("%s: payload hash moved\n got  %q: %q,", ckey, ckey, got)
				}
				for qs := int64(0); qs < 3; qs++ {
					q := testutil.RandomQuery(ds, qs)
					testutil.CheckRange(t, idx, ds, q, 3)
					testutil.CheckKNN(t, idx, ds, q, 10)
				}
			}
		}
	}
}

// TestMVPTArityAblationGolden pins the compdists column of
// AblationMVPTArity.
func TestMVPTArityAblationGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("single-threaded sweep; slow under the race detector")
	}
	var out bytes.Buffer
	cfg := Config{N: 3000, Queries: 20, Seed: 1, Datasets: []dataset.Kind{dataset.LA}}
	if err := AblationMVPTArity(&out, cfg); err != nil {
		t.Fatal(err)
	}
	got := map[int]int64{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		m, err1 := strconv.Atoi(f[0])
		cd, err2 := strconv.ParseInt(f[1], 10, 64)
		if err1 == nil && err2 == nil {
			got[m] = cd
		}
	}
	if len(got) != len(treeArityGolden) {
		t.Errorf("arity rows: got %v, want %v", got, treeArityGolden)
	}
	for m, want := range treeArityGolden {
		if got[m] != want {
			t.Errorf("m = %d: compdists %d, want %d", m, got[m], want)
		}
	}
}
