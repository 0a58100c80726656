package spb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// goldenLeg is what one kNN + range battery cost at one cache setting.
type goldenLeg struct {
	compdists, pa, reads, cacheHits int64
}

// goldenCosts is what one SPB-tree spent, stored and answered on the
// fixed workload of TestSPBGoldenCosts. The paper's cost model
// (compdists, page accesses) is deterministic and the page images are
// the on-disk format (bulk-load packing, aug corners, RAF layout), so
// these are exact constants: a change to the Hilbert decode, the node
// access, the traversal order, the pager's LRU or the RAF append path
// that moves one of them changed behaviour, not just code.
type goldenCosts struct {
	buildWrites int64     // page writes of New
	buildPages  string    // SHA-256 of pager.Serialize() after New
	cold, warm  goldenLeg // battery with the page cache off / at DefaultCacheBytes
	churnPA     int64     // page accesses of the Insert/Delete run (cache off)
	churnPages  string    // SHA-256 of pager.Serialize() after the run
	after       goldenLeg // battery on the churned tree, cache at DefaultCacheBytes
	answers     string    // SHA-256 over every answer of the three batteries
}

// goldenShape is one pinned configuration. "words" verifies through
// store.DecodeObject (edit distance, variable-length records); "vectors"
// is the benchmark's shape (L2, 5 pivots × 12 bits, fixed-width
// records); "vectors7" has more than six pivots, where the Hilbert decode
// is Skilling's loop itself.
type goldenShape struct {
	name   string
	pivots int
	words  bool
}

var goldenShapes = []goldenShape{
	{"vectors", 5, false},
	{"words", 5, true},
	{"vectors7", 7, false},
}

// golden holds the constants recorded at the parent of the probe-path
// rewrite (PR 18).
var golden = map[string]goldenCosts{
	"vectors": {8560,
		"3b451949f3389d5e9a33683d1a9079d4bf170bb08556f0662e341adb8793e159",
		goldenLeg{12557, 27935, 27935, 0}, goldenLeg{12557, 2170, 2170, 25765},
		3010,
		"3b260dbef8ce214ff61e0a897a9a270ac9a70af8fed1d24aee0dd58f716429f9",
		goldenLeg{11574, 2105, 2105, 23764},
		"de2baceccc227f46a2fdf59a36b51f57451e96fa69e541c2d0b52219c4828a3e"},
	"words": {6216,
		"a79ccaecc258cca53896cc11b1c750dee67600cd117ec7ad57596e3e024e6110",
		goldenLeg{56216, 116804, 116804, 0}, goldenLeg{56216, 228, 228, 116576},
		2597,
		"696ecae6e6a8a232df2e8c335b6dd0a5dc19df3e26b46fa52961298183530ea3",
		goldenLeg{54125, 237, 237, 112508},
		"ee6b1514a28295d22bfc2555eb9feb0565946da1d22361ac6830167e65a555e3"},
	"vectors7": {8560,
		"9d0b4dba33f6358bb7fcde87c76ceaae60eed239b22d9fcc6a5aa0618c51e92a",
		goldenLeg{6505, 14856, 14856, 0}, goldenLeg{6505, 1100, 1100, 13756},
		3009,
		"a49d641138d85b93940cbb731838c98eb1cdedc8c72e9ad3fb773a7561c9d95f",
		goldenLeg{6105, 1163, 1163, 12886},
		"de2baceccc227f46a2fdf59a36b51f57451e96fa69e541c2d0b52219c4828a3e"},
}

func goldenDataset(sh goldenShape) (*core.Dataset, float64, []float64) {
	if sh.words {
		return testutil.WordDataset(3000, 11), 40, []float64{1, 2, 3}
	}
	return testutil.VectorDataset(4000, 5, 100, core.L2{}, 7), 300, []float64{3, 10, 25}
}

func goldenChurnObject(sh goldenShape, i int) core.Object {
	if sh.words {
		return core.Word(fmt.Sprintf("%c%c%c%c", 'a'+i%8, 'a'+i/8%8, 'a'+i%3, 'a'+i%5))
	}
	return core.Vector{float64(i), float64(3*i%100) + 0.5, 50, float64(100 - i), float64(7 * i % 100)}
}

// goldenIndex is what the golden workload drives.
type goldenIndex interface {
	core.Index
	Insert(id int) error
	Delete(id int) error
}

// goldenBuild builds one keyed index over ds on pager.
type goldenBuild func(ds *core.Dataset, pager *store.Pager, pv []int, maxD float64) (goldenIndex, error)

func buildSPB(ds *core.Dataset, pager *store.Pager, pv []int, maxD float64) (goldenIndex, error) {
	return New(ds, pager, pv, Options{MaxDistance: maxD})
}

// goldenRun builds the index and drives the fixed workload. It returns
// the index as well so the caller can pin what is derived from it.
func goldenRun(t *testing.T, sh goldenShape, build goldenBuild) (goldenCosts, goldenIndex) {
	t.Helper()
	ds, maxD, radii := goldenDataset(sh)
	pv, err := pivot.HFI(ds, sh.pivots, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	pager := store.NewPager(512)
	idx, err := build(ds, pager, pv, maxD)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var g goldenCosts
	g.buildWrites = pager.Writes()
	g.buildPages = fmt.Sprintf("%x", sha256.Sum256(pager.Serialize()))

	var queries []core.Object
	for qs := int64(0); qs < 8; qs++ {
		queries = append(queries, testutil.RandomQuery(ds, qs))
	}
	answers := sha256.New()
	battery := func(cacheBytes int) goldenLeg {
		pager.SetCacheBytes(cacheBytes)
		pager.ResetStats()
		ds.Space().ResetCompDists()
		for _, q := range queries {
			for _, k := range []int{1, 10, 50} {
				ns, err := idx.KNNSearch(q, k)
				if err != nil {
					t.Fatalf("KNNSearch: %v", err)
				}
				for _, nb := range ns {
					_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
					_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(-1))
			}
			for _, r := range radii {
				ids, err := idx.RangeSearch(q, r)
				if err != nil {
					t.Fatalf("RangeSearch: %v", err)
				}
				for _, id := range ids {
					_ = binary.Write(answers, binary.LittleEndian, int64(id))
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(-1))
			}
		}
		return goldenLeg{ds.Space().CompDists(), pager.PageAccesses(), pager.Reads(), pager.CacheHits()}
	}
	g.cold = battery(0)
	g.warm = battery(store.DefaultCacheBytes)

	// Deletes spread over the curve (the last id among them), then
	// enough inserts to split leaves.
	pager.SetCacheBytes(0)
	pager.ResetStats()
	n := ds.Count()
	victims := []int{n - 1}
	for id := 0; id < n-1; id += 9 {
		victims = append(victims, id)
	}
	for _, id := range victims {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 120; i++ {
		if err := idx.Insert(ds.Insert(goldenChurnObject(sh, i))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	g.churnPA = pager.PageAccesses()
	g.churnPages = fmt.Sprintf("%x", sha256.Sum256(pager.Serialize()))
	g.after = battery(store.DefaultCacheBytes)
	g.answers = fmt.Sprintf("%x", answers.Sum(nil))
	return g, idx
}

// TestSPBGoldenCosts pins, for the SPB-tree on fixed-width vectors,
// variable-length words and a more-than-six-pivot grid, the exact
// compdists, page accesses, reads and cache hits of a fixed kNN + range
// battery with the page cache off and on, the page writes and page
// images of the build, the page accesses and page images of a fixed
// Insert/Delete run, and every answer.
func TestSPBGoldenCosts(t *testing.T) {
	for _, sh := range goldenShapes {
		got, idx := goldenRun(t, sh, buildSPB)
		if want, ok := golden[sh.name]; !ok || got != want {
			t.Errorf("%s: costs moved\n got  %q: %s\n want %+v", sh.name, sh.name, got.literal(), want)
		}
		goldenSnapshot(t, sh, idx.(*Index), got.churnPages)
	}
}

// goldenSnapshots pins the SHA-256 of the EncodeSnapshot payload of each
// churned tree. It could not be pinned before the rewrite: the RAF
// directory was serialized in map order, so no two snapshots of one tree
// were equal.
var goldenSnapshots = map[string]string{
	"vectors":  "ddf6aa2e2ab8c05db76c8ba6ddc9074171ebf5f5cbd1929064397250b3acc8bd",
	"words":    "5588ad849a32af8dd768e4646970ebef3f61334df74d5a0b6b6cd38fe8266e08",
	"vectors7": "e0324329eb66c15d47a32739d4dca871168ff023714eda16c479cf332de6a88f",
}

// goldenSnapshot checks that the tree snapshots deterministically to the
// pinned payload, and that the payload loads into a tree with the same
// page images and the same answers.
func goldenSnapshot(t *testing.T, sh goldenShape, idx *Index, pages string) {
	t.Helper()
	if !bytes.Equal(idx.raf.Serialize(), idx.raf.Serialize()) {
		t.Errorf("%s: two RAF.Serialize calls differ", sh.name)
	}
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", sh.name, err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(w.Bytes())); got != goldenSnapshots[sh.name] {
		t.Errorf("%s: snapshot payload hashes to %q, want %q", sh.name, got, goldenSnapshots[sh.name])
	}
	// A payload written before the directory was id-ordered lists the
	// same entries in map order; reversing them in place stands in for
	// it. Both must load.
	old := bytes.Clone(w.Bytes())
	raf := idx.raf.Serialize()
	at := bytes.Index(old, raf)
	if at < 0 {
		t.Fatalf("%s: RAF state not found in the payload", sh.name)
	}
	dir := old[at+len(raf)-16*idx.raf.Len() : at+len(raf)]
	for i, j := 0, len(dir)-16; i < j; i, j = i+16, j-16 {
		var e [16]byte
		copy(e[:], dir[i:])
		copy(dir[i:i+16], dir[j:j+16])
		copy(dir[j:], e[:])
	}
	for name, payload := range map[string][]byte{"id-ordered": w.Bytes(), "reordered": old} {
		loaded, pager, err := loadIndex("SPB-tree", idx.ds, store.NewReader(payload))
		if err != nil {
			t.Fatalf("%s: load %s payload: %v", sh.name, name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(pager.Serialize())); got != pages {
			t.Errorf("%s: %s payload loads page images hashing to %q, want the pinned %q", sh.name, name, got, pages)
		}
		for qs := int64(20); qs < 24; qs++ {
			q := testutil.RandomQuery(idx.ds, qs)
			testutil.CheckKNN(t, loaded, idx.ds, q, 10)
			testutil.CheckRange(t, loaded, idx.ds, q, 5)
		}
	}
}

// literal prints g as the Go literal the golden map holds.
func (g goldenCosts) literal() string {
	leg := func(l goldenLeg) string {
		return fmt.Sprintf("goldenLeg{%d, %d, %d, %d}", l.compdists, l.pa, l.reads, l.cacheHits)
	}
	return fmt.Sprintf("{%d,\n\t%q,\n\t%s, %s,\n\t%d,\n\t%q,\n\t%s,\n\t%q},",
		g.buildWrites, g.buildPages, leg(g.cold), leg(g.warm), g.churnPA, g.churnPages, leg(g.after), g.answers)
}
