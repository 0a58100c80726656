package persist_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/dataset"
	"metricindex/internal/epoch"
	"metricindex/internal/persist"
	"metricindex/internal/plan"
	"metricindex/internal/spb"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// The attribute golden test pins every byte and every answer that
// attribute storage reaches — the MXSNAP image, the MIDX2 file, a WAL of
// attribute-carrying writes, the planner's selectivity estimates, and the
// answers and compdists of every battery filter under every forced
// strategy — on a deliberately hostile attribute population. The
// constants were recorded before attributes moved from per-row bags to
// columns; the storage rewrite must reproduce them without an edit.

// attrGoldenBattery mixes the shared filter battery with leaves that
// probe the corners of the value model: a field that is an int in one row
// and a string or tag set in another, NaN and ±Inf floats, ints above
// 2^53 (which compare in the widened float64 domain), the empty string as
// a value and as a tag, string ordering, and IN lists of mixed types.
func attrGoldenBattery() []string {
	return append(testutil.FilterPredicates(),
		`category = ""`,
		`level = 3.5`,
		`mixed = 3`,
		`mixed = "m4"`,
		`mixed < 5`,
		`mixed >= "m5"`,
		`mixed IN (1, "m10", 2.5, "hot")`,
		`mixed != "m1"`,
		`score > 50`,
		`score <= 0`,
		`score = 0`,
		`score != 0`,
		`score >= -1e308 AND score <= 1e308`,
		`big = 9007199254740993`,
		`big > 9007199254740992`,
		`big < -1e18`,
		`big >= 9.2e18`,
		`tags = ""`,
		`tags IN ("sale", "")`,
		`tags != "hot"`,
		`tags < "z"`,
		`name < "b"`,
		`name >= "é"`,
		`name IN ("zz", 1)`,
		`name = ""`,
		`nosuch != 1`,
		`(category = "mid" OR tags = "hot") AND score < 75`,
		`level >= 2 OR mixed = "m7" OR big < 0`,
		`NOT_A_FIELD < "a" OR (name > "a" AND (mixed > 2 OR tags = "sale"))`,
	)
}

// attrGoldenBag is the bag of the i-th generated object: nil and empty
// bags, rows missing some fields, and every kind a field can take.
func attrGoldenBag(i int) core.Attrs {
	switch i % 13 {
	case 0:
		return nil
	case 1:
		return core.Attrs{}
	}
	a := core.Attrs{}
	switch i % 4 {
	case 0:
		a["category"] = core.StringValue("rare")
	case 1:
		a["category"] = core.StringValue("mid")
	case 2:
		a["category"] = core.StringValue("common")
	}
	if i%7 == 3 {
		a["category"] = core.StringValue("")
	}
	switch i % 5 {
	case 0, 1, 2:
		a["level"] = core.IntValue(int64(i % 10))
	case 3:
		a["level"] = core.FloatValue(float64(i%10) + 0.5)
	}
	switch i % 6 {
	case 0:
		a["mixed"] = core.IntValue(int64(i % 7))
	case 1:
		a["mixed"] = core.StringValue(fmt.Sprintf("m%d", i%11))
	case 2:
		a["mixed"] = core.FloatValue(float64(i%9) / 2)
	case 3:
		a["mixed"] = core.TagsValue("hot", fmt.Sprintf("m%d", i%5))
	case 4:
		a["mixed"] = core.StringValue("")
	}
	switch {
	case i%17 == 0:
		a["score"] = core.FloatValue(math.NaN())
	case i%19 == 0:
		a["score"] = core.FloatValue(math.Inf(1))
	case i%23 == 0:
		a["score"] = core.FloatValue(math.Inf(-1))
	case i%29 == 0:
		a["score"] = core.FloatValue(math.Copysign(0, -1))
	case i%3 != 0:
		a["score"] = core.FloatValue(float64(i*37%1000) / 10)
	}
	switch i % 8 {
	case 0:
		a["big"] = core.IntValue(1<<53 + int64(i%4))
	case 1:
		a["big"] = core.IntValue(-(1 << 62) - int64(i))
	case 2:
		a["big"] = core.IntValue(math.MaxInt64)
	case 3:
		a["big"] = core.IntValue(math.MinInt64)
	case 4:
		a["big"] = core.StringValue("9007199254740993")
	}
	switch i % 9 {
	case 0:
		a["tags"] = core.TagsValue("hot")
	case 1:
		a["tags"] = core.TagsValue("sale", "")
	case 2:
		a["tags"] = core.TagsValue()
	case 3:
		a["tags"] = core.TagsValue("hot", "hot", "sale")
	case 4:
		a["tags"] = core.TagsValue("")
	}
	names := []string{"a", "zz", "é", "", "a\x00b", "B", "ab"}
	if i%5 != 4 {
		a["name"] = core.StringValue(names[i%len(names)])
	}
	return a
}

// attrGoldenDataset is 400 vectors carrying attrGoldenBag, with deleted
// slots: some freed before their bag was set, some after.
func attrGoldenDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ds := testutil.VectorDataset(400, 4, 100, core.L2{}, 5)
	for id := 0; id < ds.Len(); id += 31 {
		if err := ds.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ds.LiveIDs() {
		if err := ds.SetAttrs(id, attrGoldenBag(id)); err != nil {
			t.Fatalf("SetAttrs(%d): %v", id, err)
		}
	}
	for id := 4; id < ds.Len(); id += 9 {
		if ds.Live(id) {
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// attrGoldenWant is the pinned state. answers maps index/strategy/kind to
// the SHA-256 of every answer and every per-query compdists figure, then
// the leg's total compdists and page accesses.
var attrGoldenWant = struct {
	snapshot, midx, wal, walSnapshot, selectivity string
	answers                                       map[string]string
}{
	snapshot:    "757d116222009ee9ca08b1ed0ea680c992823844c9559c48f084179a40a45731",
	midx:        "f771df11a5af8b1e873c26357453c5dfcdb5ceec29389a8d35fa83550a0ae269",
	wal:         "a1709f790121d153f3483b90a24c9803824ae8b3a145399e9257da0a52559c1d",
	walSnapshot: "d63f9b488b1740401a1fdc9a4cf2de99d4bedefca196fa7925d906567b5e03c7",
	selectivity: "dac9191922a65e65268ec7fd43285ca4527cce0fb2d01397596e81c1cd7bb88e",
	answers: map[string]string{
		"LAESA/pre/range":      "7f42bf53ba43576b9200ef715e22d2e2836b96eff143b9c62024492984b6093a cd=42240 pa=0",
		"LAESA/pre/knn":        "5128765eea0fad7f2d581fdd55f6f889e19f64952b53bc907a892f3fa4303c52 cd=25344 pa=0",
		"LAESA/probe/range":    "28682f8a44b6b66bd4b6fdf23301ce5452c5b4f86b79d99eeefced3f9aeae7bf cd=17263 pa=0",
		"LAESA/probe/knn":      "fd52bc0a0a16db97de85f5b2a81f5d7ff69b1e6279c01e1e3dfc6a4417e7a769 cd=12303 pa=0",
		"LAESA/post/range":     "0ba16d5cc1c379e6e937b843d9d5304a5f3dd4fa8fb0a0f375655fc78dbae383 cd=71370 pa=0",
		"LAESA/post/knn":       "3c60fc27b3bf1f21e18b3cc4ff844e1396c6d0f3c6530275ea287d6447a56d97 cd=199283 pa=0",
		"SPB-tree/pre/range":   "7f42bf53ba43576b9200ef715e22d2e2836b96eff143b9c62024492984b6093a cd=42240 pa=0",
		"SPB-tree/pre/knn":     "5128765eea0fad7f2d581fdd55f6f889e19f64952b53bc907a892f3fa4303c52 cd=25344 pa=0",
		"SPB-tree/probe/range": "0947721d53bb955a49fb556c258e447aae321b61b8ca9a255d31544c346408a3 cd=39780 pa=81666",
		"SPB-tree/probe/knn":   "7ffb095df638e44db2189c01681910c438fa84613c1bebc82ab6a2bc1a5fe088 cd=184718 pa=386932",
		"SPB-tree/post/range":  "0947721d53bb955a49fb556c258e447aae321b61b8ca9a255d31544c346408a3 cd=39780 pa=81666",
		"SPB-tree/post/knn":    "7ffb095df638e44db2189c01681910c438fa84613c1bebc82ab6a2bc1a5fe088 cd=184718 pa=386932",
	},
}

func sumHex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

func fileHash(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sumHex(b)
}

// attrEncodings is every slot's bag in the store codec (NaN-safe
// equality, unlike Attrs.Equal), keyed by slot.
func attrEncodings(ds *core.Dataset) []string {
	out := make([]string, ds.Len())
	for id := range out {
		out[id] = string(store.EncodeAttrs(nil, ds.Attrs(id)))
	}
	return out
}

func requireSameAttrs(t *testing.T, what string, got, want *core.Dataset) {
	t.Helper()
	g, w := attrEncodings(got), attrEncodings(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d slots, want %d", what, len(g), len(w))
	}
	for id := range g {
		if g[id] != w[id] {
			t.Fatalf("%s: slot %d bag differs: %v vs %v", what, id, got.Attrs(id), want.Attrs(id))
		}
	}
}

func TestAttrStorageGolden(t *testing.T) {
	ds := attrGoldenDataset(t)
	pv, err := pivotsFor(ds)
	if err != nil {
		t.Fatal(err)
	}
	laesa, err := table.NewLAESA(ds, pv)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := spb.New(ds, store.NewPager(512), pv, spb.Options{MaxDistance: 200})
	if err != nil {
		t.Fatal(err)
	}
	var preds []*plan.Predicate
	for _, src := range attrGoldenBattery() {
		p, err := plan.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		preds = append(preds, p)
	}
	got := map[string]string{}

	// Answers and costs: every filter × forced strategy × {range, kNN}.
	var queries []core.Object
	for qs := int64(0); qs < 3; qs++ {
		queries = append(queries, testutil.RandomQuery(ds, qs))
	}
	for _, ix := range []struct {
		name string
		idx  core.Index
	}{{"LAESA", laesa}, {"SPB-tree", tree}} {
		for _, st := range plan.Strategies {
			for _, kind := range []string{"range", "knn"} {
				h := sha256.New()
				ds.Space().ResetCompDists()
				ix.idx.ResetStats()
				var totalCD int64
				for _, p := range preds {
					for _, q := range queries {
						before := ds.Space().CompDists()
						if kind == "range" {
							for _, r := range testutil.Radii(ds, q) {
								ids, err := plan.ExecRange(ds, ix.idx, p, q, r, st, nil)
								if err != nil {
									t.Fatal(err)
								}
								hashInts(h, ids)
							}
						} else {
							for _, k := range []int{1, 5, 20} {
								ns, err := plan.ExecKNN(ds, ix.idx, p, q, k, st, 0.3, nil)
								if err != nil {
									t.Fatal(err)
								}
								hashNeighbors(h, ns)
							}
						}
						cd := ds.Space().CompDists() - before
						totalCD += cd
						_ = binary.Write(h, binary.LittleEndian, cd)
					}
				}
				key := fmt.Sprintf("%s/%v/%s", ix.name, st, kind)
				got[key] = fmt.Sprintf("%x cd=%d pa=%d", h.Sum(nil), totalCD, ix.idx.PageAccesses())
			}
		}
	}

	// The MXSNAP image of the dataset and the LAESA index.
	img, err := persist.Encode(ds, laesa, 7)
	if err != nil {
		t.Fatal(err)
	}
	snapHash := sumHex(img)
	snap, err := persist.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAttrs(t, "snapshot restore", snap.Dataset, ds)

	// The MIDX2 dataset file (live objects renumbered densely).
	dir := t.TempDir()
	midx := filepath.Join(dir, "golden.midx")
	if err := dataset.Save(midx, &dataset.Generated{Kind: dataset.LA, Dataset: ds, Queries: queries, MaxDistance: 200}); err != nil {
		t.Fatal(err)
	}
	midxHash := fileHash(t, midx)
	loaded, err := dataset.Load(midx)
	if err != nil {
		t.Fatal(err)
	}
	for pos, id := range ds.LiveIDs() {
		if g, w := store.EncodeAttrs(nil, loaded.Dataset.Attrs(pos)), store.EncodeAttrs(nil, ds.Attrs(id)); string(g) != string(w) {
			t.Fatalf("MIDX2 round trip: position %d (id %d) bag differs", pos, id)
		}
	}

	// A WAL of attribute-carrying writes through a journaled Live, the
	// estimator it maintains, and the snapshot SaveLive writes after them.
	snapPath := filepath.Join(dir, "live.mxs")
	if err := os.WriteFile(snapPath, img, 0o644); err != nil {
		t.Fatal(err)
	}
	live, _, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "golden.wal")
	wal, _, _, err := persist.OpenWAL(walPath, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	live.SetJournal(wal)
	for i := 0; i < 12; i++ {
		o := core.Vector{float64(i), float64(2 * i), 50, float64(90 - i)}
		if _, _, err := live.AddAttrsAt(o, attrGoldenBag(1000+i)); err != nil {
			t.Fatalf("AddAttrsAt: %v", err)
		}
	}
	for i, id := range []int{2, 3, 5, 7, 11, 17, 19, 20} {
		if _, err := live.SetAttrsAt(id, attrGoldenBag(2000+i)); err != nil {
			t.Fatalf("SetAttrsAt(%d): %v", id, err)
		}
	}
	if _, err := live.SetAttrsAt(23, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{6, 8, 10, 12} {
		if _, err := live.RemoveAt(id); err != nil {
			t.Fatalf("RemoveAt(%d): %v", id, err)
		}
	}
	// Two delete/insert pairs as an older build journaled them: the
	// legacy index-only records, redone as a remove and an add.
	for _, id := range []int{14, 15} {
		var obj core.Object
		live.View(func(lds *core.Dataset, _ core.Index) { obj = lds.Object(id) })
		bag := live.Attrs(id)
		for _, w := range []epoch.Write{{Op: epoch.OpDelete, ID: id}, {Op: epoch.OpInsert, ID: id, Obj: obj, Attrs: bag}} {
			ep := live.Epoch() + 1
			if err := wal.Append(w.Op, ep, w.ID, w.Obj, w.Attrs); err != nil {
				t.Fatal(err)
			}
			if err := live.Apply(ep, w); err != nil {
				t.Fatalf("Apply(op %d, %d): %v", w.Op, id, err)
			}
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	walHash := fileHash(t, walPath)
	sel := sha256.New()
	for _, p := range preds {
		_ = binary.Write(sel, binary.LittleEndian, math.Float64bits(live.Selectivity(p)))
	}
	selHash := fmt.Sprintf("%x", sel.Sum(nil))
	savedPath := filepath.Join(dir, "after.mxs")
	if err := persist.SaveLive(savedPath, live); err != nil {
		t.Fatal(err)
	}
	walSnapHash := fileHash(t, savedPath)

	// Replaying the WAL over the first snapshot reproduces the live state.
	replayed, _, err := persist.OpenLive(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, _, err := persist.OpenWAL(walPath, persist.SyncOff)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Replay(replayed, recs); err != nil {
		t.Fatal(err)
	}
	live.View(func(lds *core.Dataset, _ core.Index) {
		replayed.View(func(rds *core.Dataset, _ core.Index) { requireSameAttrs(t, "WAL replay", rds, lds) })
	})

	w := attrGoldenWant
	check := func(what, got, want string) {
		if got != want {
			t.Errorf("%s moved:\n got  %q\n want %q", what, got, want)
		}
	}
	check("MXSNAP image", snapHash, w.snapshot)
	check("MIDX2 file", midxHash, w.midx)
	check("WAL file", walHash, w.wal)
	check("snapshot after the WAL writes", walSnapHash, w.walSnapshot)
	check("selectivity estimates", selHash, w.selectivity)
	for _, key := range sortedKeys(got) {
		check(key, got[key], w.answers[key])
	}
	if len(w.answers) != len(got) {
		t.Errorf("pinned %d answer legs, ran %d", len(w.answers), len(got))
	}
}

func pivotsFor(ds *core.Dataset) ([]int, error) {
	pv := testutil.SpreadPivots(ds, 5)
	if len(pv) != 5 {
		return nil, fmt.Errorf("got %d pivots", len(pv))
	}
	return pv, nil
}

func hashInts(h hash.Hash, ids []int) {
	for _, id := range ids {
		_ = binary.Write(h, binary.LittleEndian, int64(id))
	}
	_ = binary.Write(h, binary.LittleEndian, int64(-1))
}

func hashNeighbors(h hash.Hash, ns []core.Neighbor) {
	for _, nb := range ns {
		_ = binary.Write(h, binary.LittleEndian, int64(nb.ID))
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(nb.Dist))
	}
	_ = binary.Write(h, binary.LittleEndian, int64(-1))
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
