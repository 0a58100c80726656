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
	"metricindex/internal/persist"
	"metricindex/internal/pivot"
	"metricindex/internal/store"
	"metricindex/internal/table"
	"metricindex/internal/testutil"
)

// regionCosts is what one disk region tree — the PM-tree, CPT's M-tree or
// the OmniR-tree — wrote and spent on the fixed workload of
// TestRegionTreeGolden: the SHA-256 of its page image (store.Pager.Serialize)
// and of its persist.Encode snapshot; the compdists and page accesses of
// its build (after the churn: of the churn); the kNN and range batteries'
// compdists and page accesses with the page cache off ([0]) and at
// store.DefaultCacheBytes ([1]); and the SHA-256 over every answer.
type regionCosts struct {
	pages, payload string
	build          [2]int64 // {compdists, PA}
	knn, rng       [2][2]int64
	answers        string
}

// regionFamily builds one region-tree index on a 512-byte-page pager.
type regionFamily struct {
	name  string
	build func(ds *core.Dataset, p *store.Pager, pv []int, maxD float64) (core.Index, error)
}

var regionFamilies = []regionFamily{
	{"PM-tree/w0", func(ds *core.Dataset, p *store.Pager, pv []int, _ float64) (core.Index, error) {
		return mtree.NewPMTree(ds, p, pv, 7, 0)
	}},
	{"PM-tree/w1", func(ds *core.Dataset, p *store.Pager, pv []int, _ float64) (core.Index, error) {
		return mtree.NewPMTree(ds, p, pv, 7, 1)
	}},
	{"PM-tree/w4", func(ds *core.Dataset, p *store.Pager, pv []int, _ float64) (core.Index, error) {
		return mtree.NewPMTree(ds, p, pv, 7, 4)
	}},
	{"CPT/w0", func(ds *core.Dataset, p *store.Pager, pv []int, _ float64) (core.Index, error) {
		return table.NewCPT(ds, p, pv, 7, 0)
	}},
	{"CPT/w4", func(ds *core.Dataset, p *store.Pager, pv []int, _ float64) (core.Index, error) {
		return table.NewCPT(ds, p, pv, 7, 4)
	}},
	{"OmniR-tree", func(ds *core.Dataset, p *store.Pager, pv []int, maxD float64) (core.Index, error) {
		return mtree.NewOmniRTree(ds, p, pv, maxD, 0)
	}},
}

// regionGolden holds the constants recorded before the M-tree and the
// R-tree became one paged region tree. The bulk-loaded PM-tree writes the
// same image at Workers 1 and 4.
var regionGolden = map[string]regionCosts{
	"CPT/w0/ints":            {"ee890e1a5b454039e788324e658f6127cf6ca71cddfa2a51d38e9baabbb0d591", "933d57573659ed07565c029236f55be8e7338ce3cbb92fffaa1abfb087b28188", [2]int64{122895, 30771}, [2][2]int64{{6042, 5922}, {6042, 753}}, [2][2]int64{{1284, 1164}, {1284, 311}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"CPT/w0/ints/churn":      {"64b11f36bf8dc745ab4a9ab3ffb39eb204ee1a23e683b7925f63681619fdb5e8", "ac683a828a86b74845b76b7a40247b17d0f9dc9fd3f1e33ab8701f20c90fbe88", [2]int64{11396, 3007}, [2][2]int64{{11115, 10995}, {11115, 1984}}, [2][2]int64{{1491, 1371}, {1491, 230}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"CPT/w0/words":           {"b14c1f5423eaa8b852f325e88bb0b0bac92e562ab2a10598ad7504a5429629fa", "eab8a07a3be500dd2ac65dfc842dbd1b2e7588a684eb75db1f04d615712c9b7f", [2]int64{133724, 29596}, [2][2]int64{{42186, 42066}, {42186, 5323}}, [2][2]int64{{32465, 32345}, {32465, 2440}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"CPT/w0/words/churn":     {"b71ab237b8da7c303f1347c473814b4baedd11f7f6b8d236e5c5145e2c824814", "db6494ef2f031be8077f6a5bc7ef2cdafeb9e04f1a098a0349de3fe7bf83487b", [2]int64{11129, 2594}, [2][2]int64{{58810, 58690}, {58810, 8943}}, [2][2]int64{{33206, 33086}, {33206, 4244}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
	"CPT/w4/ints":            {"d6840e5a1598b718455d3d5e80f34999aa2b9efdfd16806930d4e6dddbc79230", "add5645b59eff0274a6c0ccadea95f7562175a2571d665c25c3fda988b4cf621", [2]int64{123382, 530}, [2][2]int64{{6042, 5922}, {6042, 683}}, [2][2]int64{{1284, 1164}, {1284, 284}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"CPT/w4/ints/churn":      {"627befd38abee2c55ca84e4ea4fa6d10fa2f2db93c732cb7a0480bddf1a637ca", "3e3530b91784b7113ae83a51b9f1ccbdbe9153d1339f350cff1fbe92ba84f71a", [2]int64{12555, 3014}, [2][2]int64{{11115, 10995}, {11115, 1735}}, [2][2]int64{{1491, 1371}, {1491, 175}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"CPT/w4/words":           {"6b4f3d23dc558e86450a67871b896ce0124c9bfa3425269896f06b25cec9ba14", "362ce6b4232d4fd0702f88463d3a7a8de526706cf2bf85bfab76d53f3eb8b89f", [2]int64{143165, 426}, [2][2]int64{{42186, 42066}, {42186, 3868}}, [2][2]int64{{32465, 32345}, {32465, 1483}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"CPT/w4/words/churn":     {"d4d295422650192734c1bf02e17de55b31cf42ef0ee885100a009d82f4179e2f", "da3e1402a52ba1f8590dc7717f0547eaf594c4c9f7c03ac18879cca010ca3bcc", [2]int64{10823, 3009}, [2][2]int64{{58810, 58690}, {58810, 7113}}, [2][2]int64{{33206, 33086}, {33206, 3013}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
	"OmniR-tree/ints":        {"97692e737ac845822aa99df1e4f1b540269c39e5c3aeadc0284bcbe038e80424", "5b41caf9c9c7a40c74469a7e64a4019c9816a324703a98f6dd768ff4b247809d", [2]int64{20000, 16960}, [2][2]int64{{3275, 7926}, {3275, 1685}}, [2][2]int64{{1284, 3288}, {1284, 985}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"OmniR-tree/ints/churn":  {"2c2b1c7809b2b4af695654c919ec8bfc36bd1d4bce9294b9069c3fca9e61792c", "d1be542e3cc98f73da9c162a44694a0d620a21abbb3ccc2f092dce4819b818db", [2]int64{1600, 6723}, [2][2]int64{{3907, 9780}, {3907, 2368}}, [2][2]int64{{1491, 4119}, {1491, 1457}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"OmniR-tree/words":       {"3bcb6f8a3e57ca7e12f8559d575242db07ef87699eabf50194ed76db4d849888", "1030d0c6e1b7cc7481f7373d857d55a3236f1437d716a7f742df740f722709d3", [2]int64{20000, 16800}, [2][2]int64{{36345, 79258}, {36345, 5494}}, [2][2]int64{{32465, 71230}, {32465, 7882}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"OmniR-tree/words/churn": {"496ba623da6c42c093602ba65847b11c590d922e2c24332258121c43e050eb57", "6f5f871e30338974671f6734d263dd74c30f768a3239f56fa4f64ee52e7c8ebc", [2]int64{1350, 5929}, [2][2]int64{{34725, 76954}, {34725, 6784}}, [2][2]int64{{33206, 74001}, {33206, 9468}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
	"PM-tree/w0/ints":        {"ee606d92a4f1c5fb6474c6b6dcbc7b4a2113877ac70eea733e2efaaf92ff0630", "56f28f99d588a7b3cbe54c915ca4691f30b0c8602d270031bf62438aae70874e", [2]int64{120924, 57565}, [2][2]int64{{12880, 6805}, {12880, 5084}}, [2][2]int64{{6313, 5091}, {6313, 3399}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"PM-tree/w0/ints/churn":  {"7f5eba6c95147deb08d398fd68d6b2679ce82d7bf6325ff677ceff230d7aca96", "436065db11ca36183503059d432404095e109f2cb6e5e43cc614554aa7a22ce1", [2]int64{11196, 5681}, [2][2]int64{{14512, 7680}, {14512, 5957}}, [2][2]int64{{7722, 6110}, {7722, 4363}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"PM-tree/w0/words":       {"c2158e0830fa33c03bbf447a812d2acff1944be588f4b33fc39a0ed3e30b91d3", "b7205cbd20ace47bef4ab651f9a3d04706d7df1d38797ba3f880ac6e018a02b3", [2]int64{130446, 58613}, [2][2]int64{{53429, 21755}, {53429, 21303}}, [2][2]int64{{46440, 22152}, {46440, 22152}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"PM-tree/w0/words/churn": {"f6eaedc4c31d5ef68260b8b23305a038b4a45f587f129c65bdb6d810fea98e06", "f7a181cc80618b3b829b8d36dcac4bd788386b2bb881c034092742ebc89efca5", [2]int64{9746, 4883}, [2][2]int64{{56775, 23423}, {56775, 22825}}, [2][2]int64{{49758, 24637}, {49758, 24637}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
	"PM-tree/w1/ints":        {"db08393c2f1a46088f632a1b9a626e1ceae58aa50690da59ef4c25628c3c1a53", "9249c617a1235f3c6eb9677e8911a88f1fcbf1f9656f4ed5cfb923b0f27205c0", [2]int64{128551, 1632}, [2][2]int64{{8236, 4205}, {8236, 1966}}, [2][2]int64{{4037, 2960}, {4037, 1564}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"PM-tree/w1/ints/churn":  {"8869047902765e8505e8372e9483b600f353f3a8eee41416388caf5707664636", "7af134cc8a9451a7876dd271b2f91975dee94baec513295223e9a5f28e8ceae5", [2]int64{11937, 5708}, [2][2]int64{{9172, 4505}, {9172, 2086}}, [2][2]int64{{4699, 3414}, {4699, 1693}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"PM-tree/w1/words":       {"de3dc25bd7f372f5aef3c96b51e5dfbd6e4cf92b47f9195c36962a9f6e4bc9f4", "7571b999c765a095824d0f53669deadc5d44b561b937ff86c04e2b735c9e5278", [2]int64{143302, 1698}, [2][2]int64{{49087, 19695}, {49087, 18825}}, [2][2]int64{{43629, 19948}, {43629, 19948}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"PM-tree/w1/words/churn": {"1ce0d9e0e1c4b1564f0a345a063049d35dbf34793938c2f955c9aff617c9b652", "69cb45d9a4dd8a93a3c108adb1eb813f87a62931484d1f9285641ec3d213ccbd", [2]int64{11191, 5274}, [2][2]int64{{51830, 21377}, {51830, 20742}}, [2][2]int64{{47081, 22649}, {47081, 22649}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
	"PM-tree/w4/ints":        {"db08393c2f1a46088f632a1b9a626e1ceae58aa50690da59ef4c25628c3c1a53", "9249c617a1235f3c6eb9677e8911a88f1fcbf1f9656f4ed5cfb923b0f27205c0", [2]int64{128551, 1632}, [2][2]int64{{8236, 4205}, {8236, 1966}}, [2][2]int64{{4037, 2960}, {4037, 1564}}, "08cd547518ba9e1910e731aaaa354f7c3419a2b2f2e7ae99e978c291262b0abc"},
	"PM-tree/w4/ints/churn":  {"8869047902765e8505e8372e9483b600f353f3a8eee41416388caf5707664636", "7af134cc8a9451a7876dd271b2f91975dee94baec513295223e9a5f28e8ceae5", [2]int64{11937, 5708}, [2][2]int64{{9172, 4505}, {9172, 2086}}, [2][2]int64{{4699, 3414}, {4699, 1693}}, "d94494d43309433603a09b6dae3f0f7cbe2a55a9a3529a6d4f587e3ad171e572"},
	"PM-tree/w4/words":       {"de3dc25bd7f372f5aef3c96b51e5dfbd6e4cf92b47f9195c36962a9f6e4bc9f4", "7571b999c765a095824d0f53669deadc5d44b561b937ff86c04e2b735c9e5278", [2]int64{143302, 1698}, [2][2]int64{{49087, 19695}, {49087, 18825}}, [2][2]int64{{43629, 19948}, {43629, 19948}}, "54e34d0a5903c2336c00d3f5087041bdb0ba45b401c80530eb14664074278418"},
	"PM-tree/w4/words/churn": {"1ce0d9e0e1c4b1564f0a345a063049d35dbf34793938c2f955c9aff617c9b652", "69cb45d9a4dd8a93a3c108adb1eb813f87a62931484d1f9285641ec3d213ccbd", [2]int64{11191, 5274}, [2][2]int64{{51830, 21377}, {51830, 20742}}, [2][2]int64{{47081, 22649}, {47081, 22649}}, "e88900a70a8362ce1eb1d0c5973f68381257a63f7a57c5038f55ba40ad477122"},
}

// regionBatteries runs treeGoldenRun's kNN battery and treeRangeBattery's
// range battery, each with the page cache off and then on, and hashes
// every answer into answers.
func regionBatteries(t *testing.T, idx core.Index, ds *core.Dataset, p *store.Pager, shape string, c *regionCosts) {
	t.Helper()
	radii := []float64{0, 4, 10}
	if shape == "words" {
		radii = []float64{1, 2, 3}
	}
	answers := sha256.New()
	leg := func(run func(q core.Object, h hash.Hash)) (cd [2]int64) {
		p.ResetStats()
		ds.Space().ResetCompDists()
		for qs := int64(0); qs < 8; qs++ {
			run(testutil.RandomQuery(ds, qs), answers)
		}
		return [2]int64{ds.Space().CompDists(), p.PageAccesses()}
	}
	for i, cache := range []int{0, store.DefaultCacheBytes} {
		p.SetCacheBytes(cache)
		c.knn[i] = leg(func(q core.Object, h hash.Hash) {
			for _, k := range []int{1, 10, 50} {
				ns, err := idx.KNNSearch(q, k)
				if err != nil {
					t.Fatalf("%s: KNNSearch: %v", idx.Name(), err)
				}
				for _, nb := range ns {
					_ = binary.Write(h, binary.LittleEndian, int64(nb.ID))
					_ = binary.Write(h, binary.LittleEndian, math.Float64bits(nb.Dist))
				}
				_ = binary.Write(h, binary.LittleEndian, int64(-1))
			}
		})
		c.rng[i] = leg(func(q core.Object, h hash.Hash) {
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
		})
	}
	p.SetCacheBytes(0)
	c.answers = fmt.Sprintf("%x", answers.Sum(nil))
}

// regionImages fills the page-image and snapshot hashes.
func regionImages(t *testing.T, idx core.Index, ds *core.Dataset, p *store.Pager, c *regionCosts) {
	t.Helper()
	c.pages = fmt.Sprintf("%x", sha256.Sum256(p.Serialize()))
	snap, err := persist.Encode(ds, idx, 0)
	if err != nil {
		t.Fatalf("%s: persist.Encode: %v", idx.Name(), err)
	}
	c.payload = fmt.Sprintf("%x", sha256.Sum256(snap))
}

// TestRegionTreeGolden pins the PM-tree (insertion build, and the bulk
// load at Workers 1 and 4), CPT (insertion and bulk builds) and the
// OmniR-tree on integer vectors and words: page-image and snapshot
// hashes, build costs, kNN and range costs with the cache off and on, and
// every answer — on the fresh build, and again after treeChurn, whose
// cluster inserts split leaves and internal nodes of every tree. Every
// constant was recorded before the M-tree and the R-tree became one
// paged region tree.
func TestRegionTreeGolden(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("one goroutine per leg; slow under the race detector")
	}
	for _, fam := range regionFamilies {
		for _, shape := range []string{"ints", "words"} {
			ds, maxD := treeGoldenDataset(shape)
			pv, err := pivot.HFI(ds, 5, pivot.Options{Seed: 3})
			if err != nil {
				t.Fatalf("HFI: %v", err)
			}
			p := store.NewPager(512)
			var fresh, churned regionCosts
			ds.Space().ResetCompDists()
			idx, err := fam.build(ds, p, pv, maxD)
			if err != nil {
				t.Fatalf("%s: build: %v", fam.name, err)
			}
			fresh.build = [2]int64{ds.Space().CompDists(), p.PageAccesses()}
			regionImages(t, idx, ds, p, &fresh)
			regionBatteries(t, idx, ds, p, shape, &fresh)

			p.ResetStats()
			ds.Space().ResetCompDists()
			treeChurn(t, idx, ds, shape)
			churned.build = [2]int64{ds.Space().CompDists(), p.PageAccesses()}
			regionImages(t, idx, ds, p, &churned)
			regionBatteries(t, idx, ds, p, shape, &churned)

			for suffix, got := range map[string]regionCosts{"": fresh, "/churn": churned} {
				key := fam.name + "/" + shape + suffix
				if want, ok := regionGolden[key]; !ok || got != want {
					t.Errorf("%s: moved\n got  %q: {%q, %q, [2]int64{%d, %d}, [2][2]int64{{%d, %d}, {%d, %d}}, [2][2]int64{{%d, %d}, {%d, %d}}, %q},",
						key, key, got.pages, got.payload, got.build[0], got.build[1],
						got.knn[0][0], got.knn[0][1], got.knn[1][0], got.knn[1][1],
						got.rng[0][0], got.rng[0][1], got.rng[1][0], got.rng[1][1], got.answers)
				}
			}
		}
	}
}
