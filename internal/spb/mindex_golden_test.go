package spb

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/store"
	"metricindex/internal/testutil"
)

// mindexGoldenMaxNum is the split threshold of the pinned M-indexes: low
// enough that both builds split clusters and that goldenRun's churn
// splits more on the vector shape.
const mindexGoldenMaxNum = 100

func buildMIndex(star bool) goldenBuild {
	return func(ds *core.Dataset, pager *store.Pager, pv []int, maxD float64) (goldenIndex, error) {
		return NewMIndex(ds, pager, pv, MIndexOptions{Star: star, MaxNum: mindexGoldenMaxNum, MaxDistance: maxD})
	}
}

// mindexGolden holds the M-index and M-index* constants of
// TestMIndexGoldenCosts, recorded before the two kinds joined the
// SPB-tree's engine. The M-index* kNN constants were re-pinned when a
// leaf's candidates of equal bound began to verify in leaf order rather
// than in the order of an unstable sort.
var mindexGolden = map[string]goldenCosts{
	"M-index/vectors": {40314,
		"88b877dfaced1e6ce810fea665cae522ec6057711cee6089e2905d4a9b164b33",
		goldenLeg{22226, 229827, 229827, 0}, goldenLeg{22226, 93243, 93243, 136584},
		7786,
		"81a1bb83e35e8d5a3f3eaeeb63664a744d910bdd19698ec7c36e5418267db02c",
		goldenLeg{20386, 85845, 85845, 125944},
		"de2baceccc227f46a2fdf59a36b51f57451e96fa69e541c2d0b52219c4828a3e"},
	"M-index/words": {23494,
		"48fd08f816d059e594aa268ec94e27169e6822387d8d3b6012ae7de92803239a",
		goldenLeg{59715, 341269, 341269, 0}, goldenLeg{59715, 78796, 78796, 262473},
		4889,
		"83b4eb5e1820677a93513216f815ffc58fe73422a3d770c7d3f27f9cb9a913fe",
		goldenLeg{56926, 80992, 80992, 246656},
		"ee6b1514a28295d22bfc2555eb9feb0565946da1d22361ac6830167e65a555e3"},
	"M-index*/vectors": {40314,
		"88b877dfaced1e6ce810fea665cae522ec6057711cee6089e2905d4a9b164b33",
		goldenLeg{15157, 150777, 150777, 0}, goldenLeg{15157, 61390, 61390, 89387},
		7786,
		"81a1bb83e35e8d5a3f3eaeeb63664a744d910bdd19698ec7c36e5418267db02c",
		goldenLeg{14578, 57587, 57587, 84609},
		"de2baceccc227f46a2fdf59a36b51f57451e96fa69e541c2d0b52219c4828a3e"},
	"M-index*/words": {23494,
		"48fd08f816d059e594aa268ec94e27169e6822387d8d3b6012ae7de92803239a",
		goldenLeg{60902, 244971, 244971, 0}, goldenLeg{60902, 55079, 55079, 189892},
		4889,
		"83b4eb5e1820677a93513216f815ffc58fe73422a3d770c7d3f27f9cb9a913fe",
		goldenLeg{58361, 56653, 56653, 176275},
		"ee6b1514a28295d22bfc2555eb9feb0565946da1d22361ac6830167e65a555e3"},
}

// TestMIndexGoldenCosts pins, for the M-index and the M-index* on the
// vector and word shapes of TestSPBGoldenCosts, the same figures: the
// build's page writes and page images, the compdists, page accesses,
// reads and cache hits of the kNN + range battery with the page cache
// off and on, the page accesses and page images of the Insert/Delete run
// (which splits clusters on vectors), the battery after it, and every answer.
func TestMIndexGoldenCosts(t *testing.T) {
	for _, star := range []bool{false, true} {
		for _, sh := range goldenShapes[:2] {
			name := "M-index/" + sh.name
			if star {
				name = "M-index*/" + sh.name
			}
			got, idx := goldenRun(t, sh, buildMIndex(star))
			if want, ok := mindexGolden[name]; !ok || got != want {
				t.Errorf("%s: costs moved\n got  %q: %s\n want %+v", name, name, got.literal(), want)
			}
			mindexSnapshot(t, name, idx.(*Index), got.churnPages)
		}
	}
}

// mindexGoldenSnapshots pins the SHA-256 of the EncodeSnapshot payload of
// each churned M-index: the SPB-tree's handle plus the cluster tree.
// The payload holds no kind (the snapshot header does), so the two kinds
// of one shape write the same bytes.
var mindexGoldenSnapshots = map[string]string{
	"M-index/vectors":  "01f8b46eb1765a0586b2f1d896b04cb3506815bf90d9ea5aaeb32ffc2457b7e7",
	"M-index/words":    "f8642170756a07cadde8c0ef47771aa4cbda55f79f2567b77668d732ad2f73bb",
	"M-index*/vectors": "01f8b46eb1765a0586b2f1d896b04cb3506815bf90d9ea5aaeb32ffc2457b7e7",
	"M-index*/words":   "f8642170756a07cadde8c0ef47771aa4cbda55f79f2567b77668d732ad2f73bb",
}

// mindexSnapshot checks that the index snapshots to the pinned payload,
// and that the payload loads into an index with the same page images, the
// same cluster tree footprint and the answers of a linear scan.
func mindexSnapshot(t *testing.T, name string, idx *Index, pages string) {
	t.Helper()
	w := store.NewWriter()
	if err := idx.EncodeSnapshot(w); err != nil {
		t.Fatalf("%s: EncodeSnapshot: %v", name, err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(w.Bytes())); got != mindexGoldenSnapshots[name] {
		t.Errorf("%s: snapshot payload hashes to %q, want %q", name, got, mindexGoldenSnapshots[name])
	}
	loaded, pager, err := loadIndex(idx.Name(), idx.ds, store.NewReader(w.Bytes()))
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(pager.Serialize())); got != pages {
		t.Errorf("%s: payload loads page images hashing to %q, want the pinned %q", name, got, pages)
	}
	if got, want := loaded.(*Index).fam.memBytes(), idx.fam.memBytes(); got != want {
		t.Errorf("%s: loaded cluster tree is %d bytes, built one %d", name, got, want)
	}
	for qs := int64(20); qs < 24; qs++ {
		q := testutil.RandomQuery(idx.ds, qs)
		testutil.CheckKNN(t, loaded, idx.ds, q, 10)
		testutil.CheckRange(t, loaded, idx.ds, q, 5)
	}
}
