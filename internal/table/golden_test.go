package table_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// goldenCosts is what one table-family index spent and answered on the
// fixed workload of TestTableFamilyGoldenCosts. The paper's cost model
// (compdists, page accesses) is deterministic, so these are exact
// constants: any change to the staged scan, the update path or the
// table codec that moves one of them changed behaviour, not just code.
type goldenCosts struct {
	knnCD, rangeCD             int64 // compdists of the unfiltered queries
	knnAcceptCD, rangeAcceptCD int64 // compdists of the accept-filtered queries (-1: no pushdown)
	knnPA, rangePA             int64 // page accesses of the unfiltered queries
	churnCD, churnPA           int64 // what the deletes and inserts before the queries cost
	answers                    string
	snapshot                   string
}

// golden holds the constants recorded at the parent of the one-table
// refactor, keyed by family/dataset. "vectors" verifies through the flat
// coordinate mirror, "words" through chunked DistanceMany over objects —
// the chunked path is alignment-sensitive (which candidates share a chunk
// decides how stale the pruning radius may be), so both are pinned.
//
// Curve-ordered rows and best-first blocks moved only these, re-pinned
// with them: the kNN costs of LAESA and CPT (the order candidates are
// verified in), the kNN compdists of EPT/EPT* on words (chunk alignment
// under 512-row blocks) and the LAESA/CPT snapshot hashes (the stored
// row order). Every answer, every range cost, every churn cost and every
// EPT/EPT* vector constant is the one-table parent's. Omni-seq and
// DiskEPT* were recorded at the parent of the one paged table, whose
// rows they then moved onto.
//
// CPT, Omni-seq and DiskEPT* pinned their accept compdists at -1 until
// they took the accept test into the table's scan; the re-pin gave them
// the measured counts and, since the answer hash covers the filtered
// legs' answers too, the hash every other family holds on the same
// dataset. No other constant moved.
var golden = map[string]goldenCosts{
	"LAESA/vectors": {5824, 234, 4935, 183, 0, 0, 300, 0,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"3a0a29511e37542e517406f8a95fbe16b37174bcea8b040039d90fe9019b5c8a"},
	"LAESA/words": {13768, 9540, 9772, 6400, 0, 0, 300, 0,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"8154ab9a6b1d0ada7f3d25f988d31362aac3c5f703e917658843fa3076a90558"},
	"EPT/vectors": {6490, 645, 5284, 476, 0, 0, 15840, 0,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"e8f0de98a0554936ebae1bc2d2e84f70f39a70aa41ccf1ff186899b45a2a213e"},
	"EPT/words": {14531, 10570, 10630, 7076, 0, 0, 15840, 0,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"a048e3117cf0e41a5d97f4456d20c38847a00f943b2a27ef84b5915b3c631f0b"},
	"EPT*/vectors": {4848, 936, 4144, 856, 0, 0, 4320, 0,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"dcb0d37eb37284f9b5b4681320c01d70a654c079e89ec1bb14daa15e4f13a373"},
	"EPT*/words": {12718, 8018, 9591, 5562, 0, 0, 4320, 0,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"f58a233ad1bd63c325f284385645048a9e589e6f28cab4d9c0a2dd359a90bacd"},
	"CPT/vectors": {5824, 234, 4935, 183, 5734, 144, 2054, 798,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"25b4d0c51c4a4d27dc3b0da4a6756fe4a87062848b57386815e363155a87e482"},
	"CPT/words": {13484, 9540, 9521, 6400, 13394, 9450, 1969, 793,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"f2828f71de481d8581b23dd1d948c179c1ad6dcb04b94839b556a84263736766"},
	"Omni-seq/vectors": {5452, 234, 4517, 183, 12141, 1516, 300, 798,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"bdf98a058c7d8b8419bb1eedd7936b351d77744159ae18b8ffc0853c6b80dddc"},
	"Omni-seq/words": {13518, 9540, 9854, 6400, 28264, 20247, 300, 794,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"30072eb64501b963d1a34952afec59b7a8aae02455bec610d35f8252a08e5a67"},
	"DiskEPT*/vectors": {4848, 936, 4207, 856, 9898, 1938, 4320, 798,
		"4e90a615f3a2a7913708612301682aedc29463c8bce37722996d62f34c55f6c6",
		"fe058354c576e7843fd3f4b064aa9da7d247862b942b56f65a9213c0e0536d71"},
	"DiskEPT*/words": {12322, 8018, 9292, 5562, 24870, 16187, 4320, 794,
		"9d6fa66c4a5dbc29432ff9c9b6d8656038d30a522bd2257c2d94b847ac873ecd",
		"6e50fd1b20d46548e703a36960296069453fd3e87eb425c332ba169fa14f36b2"},
}

// goldenCached holds the kNN and range page accesses of the disk
// families' unfiltered legs rerun with the page cache at
// store.DefaultCacheBytes, keyed like golden. Recorded at the parent of
// the one paged table: a cache hit depends on the order the scan reads
// table pages and candidates in, which the page-access counts of the
// cache-off legs do not see.
var goldenCached = map[string][2]int64{
	"CPT/vectors":      {118, 52},
	"CPT/words":        {63, 63},
	"Omni-seq/vectors": {590, 123},
	"Omni-seq/words":   {96, 96},
	"DiskEPT*/vectors": {1314, 166},
	"DiskEPT*/words":   {111, 111},
}

// goldenAccept is the pushed-down predicate of the filtered legs.
var goldenAccept core.Accept = func(id int) bool { return id%3 != 0 }

type goldenIndex interface {
	core.Index
	persist.Snapshotter
}

func goldenBuild(t *testing.T, family string, ds *core.Dataset) goldenIndex {
	t.Helper()
	return goldenBuildOn(t, family, ds, store.NewPager(1024))
}

// goldenBuildOn builds family over ds; the disk families (CPT, Omni-seq,
// DiskEPT*) put their pages on pager.
func goldenBuildOn(t *testing.T, family string, ds *core.Dataset, pager *store.Pager) goldenIndex {
	t.Helper()
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatalf("HFI: %v", err)
	}
	eptOpts := table.EPTOptions{L: 4, Radius: 10, Sel: pivot.Options{Seed: 3, SampleSize: 128}}
	var idx goldenIndex
	switch family {
	case "LAESA":
		idx, err = table.NewLAESA(ds, pv)
	case "EPT":
		idx, err = table.NewEPT(ds, eptOpts)
	case "EPT*":
		idx, err = table.NewEPTStar(ds, eptOpts)
	case "CPT":
		idx, err = table.NewCPT(ds, pager, pv, 7, 0)
	case "Omni-seq":
		idx, err = table.NewOmniSeq(ds, pager, pv, 0)
	case "DiskEPT*":
		idx, err = table.NewDiskEPTStar(ds, pager, eptOpts)
	}
	if err != nil {
		t.Fatalf("build %s: %v", family, err)
	}
	return idx
}

// goldenChurn deletes a spread of rows (the last row among them) and
// inserts fresh objects, so the pinned costs also cover the row order
// the update path leaves behind.
func goldenChurn(t *testing.T, idx core.Index, ds *core.Dataset, words bool) {
	t.Helper()
	n := ds.Count()
	victims := []int{n - 1}
	for id := 0; id < n-1; id += 7 {
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
	for i := 0; i < 60; i++ {
		var o core.Object = core.Vector{float64(i), float64(3*i%100) + 0.5, 50, float64(100 - i)}
		if words {
			o = core.Word(fmt.Sprintf("%c%c%c%c", 'a'+i%8, 'a'+i/8%8, 'a'+i%3, 'a'+i%5))
		}
		if err := idx.Insert(ds.Insert(o)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

// goldenRun drives the fixed workload and returns what it cost, and the
// kNN and range page accesses rerun at store.DefaultCacheBytes (0 for
// the in-memory families).
func goldenRun(t *testing.T, family string, words bool) (goldenCosts, [2]int64) {
	t.Helper()
	ds := testutil.VectorDataset(1500, 4, 100, core.L2{}, 7)
	radii := []float64{2, 8, 20}
	if words {
		ds = testutil.WordDataset(1500, 11)
		radii = []float64{1, 2, 3}
	}
	pager := store.NewPager(1024)
	idx := goldenBuildOn(t, family, ds, pager)
	var g goldenCosts
	ds.Space().ResetCompDists()
	idx.ResetStats()
	goldenChurn(t, idx, ds, words)
	g.churnCD, g.churnPA = ds.Space().CompDists(), idx.PageAccesses()
	var queries []core.Object
	for qs := int64(0); qs < 6; qs++ {
		queries = append(queries, testutil.RandomQuery(ds, qs))
	}
	ks := []int{1, 10, 100}

	answers := sha256.New()
	hashIDs := func(ids []int) {
		for _, id := range ids {
			_ = binary.Write(answers, binary.LittleEndian, int64(id))
		}
		_ = binary.Write(answers, binary.LittleEndian, int64(-1))
	}
	hashNeighbors := func(ns []core.Neighbor) {
		for _, nb := range ns {
			_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
			_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
		}
		_ = binary.Write(answers, binary.LittleEndian, int64(-1))
	}
	// measure runs one leg of the workload and reports its compdists and
	// page accesses.
	measure := func(leg func(q core.Object) error) (cd, pa int64) {
		ds.Space().ResetCompDists()
		idx.ResetStats()
		for _, q := range queries {
			if err := leg(q); err != nil {
				t.Fatalf("%s: %v", family, err)
			}
		}
		return ds.Space().CompDists(), idx.PageAccesses()
	}

	knn := func(q core.Object) error {
		for _, k := range ks {
			ns, err := idx.KNNSearch(q, k)
			if err != nil {
				return err
			}
			hashNeighbors(ns)
		}
		return nil
	}
	rng := func(q core.Object) error {
		for _, r := range radii {
			ids, err := idx.RangeSearch(q, r)
			if err != nil {
				return err
			}
			hashIDs(ids)
		}
		return nil
	}
	g.knnCD, g.knnPA = measure(knn)
	g.rangeCD, g.rangePA = measure(rng)
	g.knnAcceptCD, g.rangeAcceptCD = -1, -1
	if as, ok := idx.(core.AcceptSearcher); ok {
		g.knnAcceptCD, _ = measure(func(q core.Object) error {
			for _, k := range ks {
				ns, err := as.KNNSearchAccept(q, k, goldenAccept)
				if err != nil {
					return err
				}
				hashNeighbors(ns)
			}
			return nil
		})
		g.rangeAcceptCD, _ = measure(func(q core.Object) error {
			for _, r := range radii {
				ids, err := as.RangeSearchAccept(q, r, goldenAccept)
				if err != nil {
					return err
				}
				hashIDs(ids)
			}
			return nil
		})
	}
	g.answers = fmt.Sprintf("%x", answers.Sum(nil))

	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", family, err)
	}
	g.snapshot = fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))

	// The disk families rerun the unfiltered legs with the page cache on,
	// each leg from a cold cache: which pages a hit saves depends on the
	// order the scan reads them in.
	var cached [2]int64
	if pager.Pages() > 0 {
		pager.SetCacheBytes(store.DefaultCacheBytes)
		_, cached[0] = measure(knn)
		pager.DropCache()
		_, cached[1] = measure(rng)
	}
	return g, cached
}

// largeCosts is what LAESA or CPT spent and answered on the workload of
// TestTableGoldenCostsManySupers: compdists of the kNN and range legs,
// their page accesses with the page cache off and at DefaultCacheBytes,
// and the SHA-256 of every answer.
type largeCosts struct {
	knnCD, rangeCD             int64
	knnPA, rangePA             int64 // cache off
	knnPACached, rangePACached int64 // cache at store.DefaultCacheBytes
	answers                    string
}

// goldenLarge holds the constants of a table many blocks long — LA at
// n = 72 000 is 141 blocks — recorded before the block loop gained its
// second zone level. The block sequence decides the kNN compdists, the
// order of CPT's candidate reads and so its page accesses under the
// cache; the tables of TestTableFamilyGoldenCosts are a few blocks long.
var goldenLarge = map[string]largeCosts{
	"LAESA": {21114, 90284, 0, 0, 0, 0,
		"d7ef7f926e0a0fdc4adba240b8100feef59942015e3dc3be3fef6419be18310a"},
	"CPT": {21114, 90284, 20754, 89924, 1884, 4162,
		"d7ef7f926e0a0fdc4adba240b8100feef59942015e3dc3be3fef6419be18310a"},
}

// TestTableGoldenCostsManySupers pins LAESA and CPT on a 72 000-point LA
// table: kNN at k = 1, 10, 100 and range at three radii for 24 held-out
// queries, run with CPT's page cache off and then at DefaultCacheBytes.
func TestTableGoldenCostsManySupers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 72 000-row tables")
	}
	g, err := dataset.Generate(dataset.LA, dataset.Config{N: 72000, Queries: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Dataset
	pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"LAESA", "CPT"} {
		pager := store.NewPager(0)
		var idx core.Index
		switch family {
		case "LAESA":
			idx, err = table.NewLAESA(ds, pv)
		case "CPT":
			idx, err = table.NewCPT(ds, pager, pv, 7, 2)
		}
		if err != nil {
			t.Fatalf("build %s: %v", family, err)
		}
		if tl := idx.(interface{ Table() *table.Table }).Table().Len(); tl < 4*table.SuperBlocks*table.ZoneRows {
			t.Fatalf("%s: %d rows fill fewer than four super-zones", family, tl)
		}
		answers := sha256.New()
		// measure runs one leg over every query and reports its compdists
		// and page accesses.
		measure := func(leg func(q core.Object) error) (cd, pa int64) {
			ds.Space().ResetCompDists()
			idx.ResetStats()
			for _, q := range g.Queries {
				if err := leg(q); err != nil {
					t.Fatalf("%s: %v", family, err)
				}
			}
			return ds.Space().CompDists(), idx.PageAccesses()
		}
		knn := func(q core.Object) error {
			for _, k := range []int{1, 10, 100} {
				ns, err := idx.KNNSearch(q, k)
				if err != nil {
					return err
				}
				for _, nb := range ns {
					_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
					_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(-1))
			}
			return nil
		}
		rng := func(q core.Object) error {
			for _, r := range []float64{40, 250, 900} {
				ids, err := idx.RangeSearch(q, r)
				if err != nil {
					return err
				}
				for _, id := range ids {
					_ = binary.Write(answers, binary.LittleEndian, int64(id))
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(-1))
			}
			return nil
		}
		var got largeCosts
		got.knnCD, got.knnPA = measure(knn)
		got.rangeCD, got.rangePA = measure(rng)
		pager.SetCacheBytes(store.DefaultCacheBytes)
		_, got.knnPACached = measure(knn)
		_, got.rangePACached = measure(rng)
		got.answers = fmt.Sprintf("%x", answers.Sum(nil))
		if want := goldenLarge[family]; got != want {
			t.Errorf("%s: costs moved\n got  %q: {%d, %d, %d, %d, %d, %d,\n\t%q},\n want %+v",
				family, family, got.knnCD, got.rangeCD, got.knnPA, got.rangePA, got.knnPACached, got.rangePACached, got.answers, want)
		}
	}
}

// TestTableFamilyGoldenCosts pins, for LAESA, EPT, EPT*, CPT, Omni-seq
// and DiskEPT* on both verification paths, the exact compdists and page
// accesses of a fixed kNN/range workload (unfiltered and
// accept-filtered), the answers, the SHA-256 of the snapshot payload
// written after a round of deletes and inserts — for the disk families
// it holds the page images — and the disk families' unfiltered page
// accesses with the page cache on.
func TestTableFamilyGoldenCosts(t *testing.T) {
	for _, family := range []string{"LAESA", "EPT", "EPT*", "CPT", "Omni-seq", "DiskEPT*"} {
		for _, words := range []bool{false, true} {
			key := family + "/vectors"
			if words {
				key = family + "/words"
			}
			got, cached := goldenRun(t, family, words)
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("%s: costs moved\n got  %q: {%d, %d, %d, %d, %d, %d, %d, %d,\n\t%q,\n\t%q},\n want %+v",
					key, key, got.knnCD, got.rangeCD, got.knnAcceptCD, got.rangeAcceptCD, got.knnPA, got.rangePA, got.churnCD, got.churnPA,
					got.answers, got.snapshot, want)
			}
			if want := goldenCached[key]; cached != want {
				t.Errorf("%s: cached page accesses moved\n got  %q: {%d, %d},\n want %v", key, key, cached[0], cached[1], want)
			}
		}
	}
}

// wideCosts is what one flat-path family spent and answered on a
// dataset wide enough to cross the distance kernels' 32-coordinate
// checkpoints: compdists of the kNN and range legs, the rows of each leg
// a narrowed mirror verified on their objects (0 off one), and the
// SHA-256 of every answer id and every kNN distance's bits.
type wideCosts struct {
	knnCD, rangeCD       int64
	knnExact, rangeExact int64
	answers              string
}

// goldenWide pins LAESA and EPT* on the wide datasets of
// TestTableGoldenCostsWide, keyed by family/dataset. Recorded before the
// flat kernels learned to stop early: a candidate's verification may
// read less of its row since, but never moves a count or an answer bit.
// The Color kNN counts moved once, 15 231 → 15 679 and 16 384 → 17 062,
// when the codes' upper bounds began to set the radius before any row
// of a block is verified: the scan then books the rows it sees while
// that radius tightens (docs/KERNELS.md "The narrowed mirror").
var goldenWide = map[string]wideCosts{
	"LAESA/color": {15679, 9338, 1991, 286, "226862cad2430878bbae9feb883251e773a145f03dfd3fdded85a8eb85ee1165"},
	"EPT*/color":  {17062, 7864, 4636, 528, "226862cad2430878bbae9feb883251e773a145f03dfd3fdded85a8eb85ee1165"},
	"LAESA/l2":    {63414, 59456, 0, 0, "b0a77c3e92546301c52870ac5e62269a650f3bff0af9f90ab1ed22a558903201"},
	"EPT*/l2":     {63790, 53485, 0, 0, "b0a77c3e92546301c52870ac5e62269a650f3bff0af9f90ab1ed22a558903201"},
	"LAESA/linf":  {66914, 66100, 0, 0, "d9520dad8f0630bae6bb336230ec24a6a762e0893b4af17e354a736ef8da13d9"},
	"EPT*/linf":   {67518, 61131, 0, 0, "d9520dad8f0630bae6bb336230ec24a6a762e0893b4af17e354a736ef8da13d9"},
	"LAESA/l1f32": {58414, 50800, 0, 0, "3c96386ee7b4712b691e2ae588640b91728080d00b1b80e07e8928df5252cd91"},
	"EPT*/l1f32":  {62464, 48820, 0, 0, "3c96386ee7b4712b691e2ae588640b91728080d00b1b80e07e8928df5252cd91"},
}

// wideDataset returns one of the wide golden datasets and its range
// radii: Color (282-D, L1) from the generator, 64-D uniform vectors under
// L2 and L∞, and 64-D float32 vectors under L1.
func wideDataset(t *testing.T, name string) (*core.Dataset, []core.Object, []float64) {
	t.Helper()
	var ds *core.Dataset
	var radii []float64
	switch name {
	case "color":
		g, err := dataset.Generate(dataset.Color, dataset.Config{N: 4000, Queries: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return g.Dataset, g.Queries, []float64{7000, 10000, 14000}
	case "l2":
		ds = testutil.VectorDataset(3000, 64, 100, core.L2{}, 13)
		radii = []float64{50, 265, 285}
	case "linf":
		ds = testutil.VectorDataset(3000, 64, 100, core.LInf{}, 17)
		radii = []float64{20, 70, 76}
	case "l1f32":
		ds = testutil.Vector32Dataset(3000, 64, 100, core.L1{}, 19)
		radii = []float64{250, 1620, 1760}
	}
	var queries []core.Object
	for qs := int64(0); qs < 8; qs++ {
		queries = append(queries, testutil.RandomQuery(ds, qs))
	}
	return ds, queries, radii
}

// TestTableGoldenCostsWide pins LAESA and EPT* where the flat kernels
// run whole 32-coordinate windows: kNN at k = 1, 10, 100 and range at
// three radii per query, with the kNN distances hashed bit for bit.
func TestTableGoldenCostsWide(t *testing.T) {
	for _, name := range []string{"color", "l2", "linf", "l1f32"} {
		for _, family := range []string{"LAESA", "EPT*"} {
			key := family + "/" + name
			ds, queries, radii := wideDataset(t, name)
			idx := goldenBuild(t, family, ds)
			if name == "l2" {
				// Rows holding a NaN coordinate past the first window, so
				// candidates whose distance is NaN are verified too. (Under
				// L∞ a NaN lane is dropped, which breaks the triangle
				// inequality the pivot filter relies on.)
				for i := 0; i < 20; i++ {
					v := ds.Object(i * 131).(core.Vector).Clone()
					v[40+i] = math.NaN()
					if err := idx.Insert(ds.Insert(v)); err != nil {
						t.Fatalf("%s: Insert: %v", key, err)
					}
				}
			}
			if !idx.(interface{ Table() *table.Table }).Table().FlatArmed() {
				t.Fatalf("%s: the flat path is not armed", key)
			}
			tab := idx.(interface{ Table() *table.Table }).Table()
			answers := sha256.New()
			measure := func(leg func(q core.Object) error) (int64, int64) {
				ds.Space().ResetCompDists()
				exact := tab.Exact()
				for _, q := range queries {
					if err := leg(q); err != nil {
						t.Fatalf("%s: %v", key, err)
					}
				}
				return ds.Space().CompDists(), tab.Exact() - exact
			}
			var got wideCosts
			got.knnCD, got.knnExact = measure(func(q core.Object) error {
				for _, k := range []int{1, 10, 100} {
					ns, err := idx.KNNSearch(q, k)
					if err != nil {
						return err
					}
					for _, nb := range ns {
						_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
						_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
					}
					_ = binary.Write(answers, binary.LittleEndian, int64(-1))
				}
				return nil
			})
			got.rangeCD, got.rangeExact = measure(func(q core.Object) error {
				for _, r := range radii {
					ids, err := idx.RangeSearch(q, r)
					if err != nil {
						return err
					}
					for _, id := range ids {
						_ = binary.Write(answers, binary.LittleEndian, int64(id))
					}
					_ = binary.Write(answers, binary.LittleEndian, int64(-1))
				}
				return nil
			})
			got.answers = fmt.Sprintf("%x", answers.Sum(nil))
			if want, ok := goldenWide[key]; !ok || got != want {
				t.Errorf("%s: costs moved\n got  %q: {%d, %d, %d, %d,\n\t%q},\n want %+v",
					key, key, got.knnCD, got.rangeCD, got.knnExact, got.rangeExact, got.answers, want)
			}
			if name == "color" {
				got := wideChurn(t, key, idx, ds, queries, radii)
				if want, ok := goldenWideChurn[key]; !ok || got != want {
					t.Errorf("%s: churn costs moved\n got  %q: {%d, %d, %d, %d, %d,\n\t%q},\n want %+v",
						key, key, got.churnCD, got.knnCD, got.rangeCD, got.knnExact, got.rangeExact, got.answers, want)
				}
			}
		}
	}
}

// wideChurnCosts is what the Color tables spent and answered after the
// churn leg of TestTableGoldenCostsWide: compdists of its inserts and of
// the kNN and range legs that follow, the rows of each leg verified on
// their objects, and the SHA-256 of every answer id and every kNN
// distance's bits. Rows and queries holding a NaN or an
// infinity put NaN distances in play; none is ever a neighbour (see
// core.KNNHeap), so the answers do not depend on the order a scan
// verifies its rows in.
type wideChurnCosts struct {
	churnCD, knnCD, rangeCD int64
	knnExact, rangeExact    int64
	answers                 string
}

// goldenWideChurn pins the churn leg of TestTableGoldenCostsWide, keyed
// like goldenWide.
var goldenWideChurn = map[string]wideChurnCosts{
	"LAESA/color": {350, 105260, 24463, 86732, 12956, "da396289738acb205e21e5ce70d026f433282008f73682decf720fc0440310d1"},
	"EPT*/color":  {5040, 103368, 23392, 87442, 13296, "da396289738acb205e21e5ce70d026f433282008f73682decf720fc0440310d1"},
}

// wideSpecial returns a copy of v holding, by i, a coordinate the
// generator never makes: NaN, ±Inf, float64 and float32 subnormals, a
// value past math.MaxFloat32 (and one past it that rounds back), or
// math.MaxFloat32 itself; i%7 == 6 keeps v finite and ordinary.
func wideSpecial(v core.Vector, i int) core.Vector {
	v = v.Clone()
	j, k := i*37%len(v), (i*37+101)%len(v)
	switch i % 7 {
	case 0:
		v[j] = math.NaN()
	case 1:
		v[j] = math.Inf(1)
	case 2:
		v[j] = math.Inf(-1)
	case 3:
		v[j], v[k] = 1e-310, -3e-42
	case 4:
		v[j], v[k] = 4e38, -1e300
	case 5:
		v[j], v[k] = math.MaxFloat32, -math.MaxFloat32*(1+0x1p-30)
	case 6:
		v[j] += 0.001
	}
	return v
}

// wideChurn inserts 282-D rows holding wideSpecial's coordinates,
// deletes a spread of ordinary and special rows (the last row among
// them), inserts more into the freed ids, validates the table, and
// reruns the kNN and range legs over the given queries plus queries
// holding a NaN, an infinite, a huge and a subnormal coordinate.
func wideChurn(t *testing.T, key string, idx goldenIndex, ds *core.Dataset, queries []core.Object, radii []float64) wideChurnCosts {
	t.Helper()
	var got wideChurnCosts
	ds.Space().ResetCompDists()
	insert := func(o core.Object) int {
		id := ds.Insert(o)
		if err := idx.Insert(id); err != nil {
			t.Fatalf("%s: Insert: %v", key, err)
		}
		return id
	}
	var special []int
	for i := 0; i < 42; i++ {
		special = append(special, insert(wideSpecial(ds.Object(i*89).(core.Vector), i)))
	}
	victims := []int{special[len(special)-1]}
	for i := 0; i < len(special)-1; i += 5 {
		victims = append(victims, special[i])
	}
	for id := 3; id < 4000; id += 61 {
		victims = append(victims, id)
	}
	for _, id := range victims {
		if err := idx.Delete(id); err != nil {
			t.Fatalf("%s: Delete(%d): %v", key, id, err)
		}
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	live := ds.LiveIDs()
	for i := 42; i < 70; i++ {
		special = append(special, insert(wideSpecial(ds.Object(live[i*53]).(core.Vector), i)))
	}
	got.churnCD = ds.Space().CompDists()
	if err := idx.(interface{ Validate() error }).Validate(); err != nil {
		t.Fatalf("%s: after the churn: %v", key, err)
	}
	queries = append([]core.Object(nil), queries...)
	for i := 0; i < 7; i++ {
		queries = append(queries, wideSpecial(queries[i].(core.Vector), i))
	}
	queries = append(queries, ds.Object(special[len(special)-2]), ds.Object(special[len(special)-3]))
	tab := idx.(interface{ Table() *table.Table }).Table()
	answers := sha256.New()
	measure := func(leg func(q core.Object) error) (int64, int64) {
		ds.Space().ResetCompDists()
		exact := tab.Exact()
		for _, q := range queries {
			if err := leg(q); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
		}
		return ds.Space().CompDists(), tab.Exact() - exact
	}
	got.knnCD, got.knnExact = measure(func(q core.Object) error {
		for _, k := range []int{1, 10, 100} {
			ns, err := idx.KNNSearch(q, k)
			if err != nil {
				return err
			}
			for _, nb := range ns {
				if math.IsNaN(nb.Dist) {
					t.Errorf("%s: k = %d answered id %d at a NaN distance", key, k, nb.ID)
				}
				_ = binary.Write(answers, binary.LittleEndian, int64(nb.ID))
				_ = binary.Write(answers, binary.LittleEndian, math.Float64bits(nb.Dist))
			}
			_ = binary.Write(answers, binary.LittleEndian, int64(-1))
		}
		return nil
	})
	got.rangeCD, got.rangeExact = measure(func(q core.Object) error {
		for _, r := range radii {
			ids, err := idx.RangeSearch(q, r)
			if err != nil {
				return err
			}
			for _, id := range ids {
				_ = binary.Write(answers, binary.LittleEndian, int64(id))
			}
			_ = binary.Write(answers, binary.LittleEndian, int64(-1))
		}
		return nil
	})
	got.answers = fmt.Sprintf("%x", answers.Sum(nil))
	return got
}
