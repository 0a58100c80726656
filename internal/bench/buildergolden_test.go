package bench

import (
	"fmt"
	"math"
	"testing"

	"metricindex/internal/dataset"
)

// builderCosts is what one lineup kind spends through the harness's own
// measurement path on tinyCfg: MeasureBuild's compdists and page
// accesses, then MeasureKNN (k = 5, the 128 KB cache on) and MeasureRange
// (selectivity 0.16, cache off), each summed over the three queries.
type builderCosts struct {
	build, knn, rng [2]int64 // {compdists, PA}
}

// builderGolden holds the constants recorded before the builders became
// one family registry (M-index*/Words' kNN re-pinned when equal
// candidate bounds began to verify in leaf order). BKT and FQT need a
// discrete metric, so they run on Words only.
var builderGolden = map[string]builderCosts{
	"LAESA/Words":      {[2]int64{2400, 0}, [2]int64{1131, 0}, [2]int64{1229, 0}},
	"EPT/Words":        {[2]int64{21624, 0}, [2]int64{1161, 0}, [2]int64{1222, 0}},
	"EPT*/Words":       {[2]int64{68858, 0}, [2]int64{1184, 0}, [2]int64{1273, 0}},
	"CPT/Words":        {[2]int64{14528, 2124}, [2]int64{1115, 12}, [2]int64{1229, 1217}},
	"BKT/Words":        {[2]int64{1669, 0}, [2]int64{1043, 0}, [2]int64{1426, 0}},
	"FQT/Words":        {[2]int64{1471, 0}, [2]int64{1014, 0}, [2]int64{1349, 0}},
	"MVPT/Words":       {[2]int64{1800, 0}, [2]int64{1214, 0}, [2]int64{1332, 0}},
	"PM-tree/Words":    {[2]int64{13432, 2285}, [2]int64{1003, 15}, [2]int64{1240, 44}},
	"OmniR-tree/Words": {[2]int64{2400, 2413}, [2]int64{1015, 11}, [2]int64{1229, 2456}},
	"M-index/Words":    {[2]int64{2400, 4307}, [2]int64{952, 13}, [2]int64{1229, 2528}},
	"M-index*/Words":   {[2]int64{2400, 4307}, [2]int64{953, 13}, [2]int64{1227, 2486}},
	"SPB-tree/Words":   {[2]int64{2400, 2411}, [2]int64{932, 7}, [2]int64{1229, 2451}},
	"LAESA/LA":         {[2]int64{2400, 0}, [2]int64{144, 0}, [2]int64{302, 0}},
	"EPT/LA":           {[2]int64{5688, 0}, [2]int64{122, 0}, [2]int64{322, 0}},
	"EPT*/LA":          {[2]int64{68858, 0}, [2]int64{216, 0}, [2]int64{406, 0}},
	"CPT/LA":           {[2]int64{8780, 2188}, [2]int64{144, 8}, [2]int64{302, 290}},
	"MVPT/LA":          {[2]int64{1800, 0}, [2]int64{55, 0}, [2]int64{358, 0}},
	"PM-tree/LA":       {[2]int64{10022, 2296}, [2]int64{113, 7}, [2]int64{311, 17}},
	"OmniR-tree/LA":    {[2]int64{2400, 2417}, [2]int64{28, 9}, [2]int64{302, 597}},
	"M-index/LA":       {[2]int64{2400, 4309}, [2]int64{32, 13}, [2]int64{302, 841}},
	"M-index*/LA":      {[2]int64{2400, 4309}, [2]int64{57, 13}, [2]int64{231, 841}},
	"SPB-tree/LA":      {[2]int64{2400, 2413}, [2]int64{28, 4}, [2]int64{231, 451}},
}

// TestBuilderGoldenCosts pins every lineup kind's exact build, kNN and
// range costs as MeasureBuild, MeasureKNN and MeasureRange report them.
func TestBuilderGoldenCosts(t *testing.T) {
	for _, kind := range []dataset.Kind{dataset.Words, dataset.LA} {
		for _, name := range []string{
			"LAESA", "EPT", "EPT*", "CPT", "BKT", "FQT", "MVPT",
			"PM-tree", "OmniR-tree", "M-index", "M-index*", "SPB-tree",
		} {
			if kind == dataset.LA && (name == "BKT" || name == "FQT") {
				continue
			}
			key := fmt.Sprintf("%s/%s", name, kind)
			t.Run(key, func(t *testing.T) {
				got := measureGolden(t, kind, name)
				if want, ok := builderGolden[key]; !ok || got != want {
					t.Errorf("%s: got %#v, want %#v", key, got, want)
				}
			})
		}
	}
}

func measureGolden(t *testing.T, kind dataset.Kind, name string) builderCosts {
	t.Helper()
	e, err := NewEnv(kind, tinyCfg(kind))
	if err != nil {
		t.Fatal(err)
	}
	b, bc, err := MeasureBuild(e, mustBuilder(t, name))
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(e.Gen.Queries))
	total := func(avg float64) int64 { return int64(math.Round(avg * n)) }
	kc, err := MeasureKNN(e, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := MeasureRange(e, b, e.Radius(0.16))
	if err != nil {
		t.Fatal(err)
	}
	return builderCosts{
		build: [2]int64{bc.CompDists, bc.PA},
		knn:   [2]int64{total(kc.CompDists), total(kc.PA)},
		rng:   [2]int64{total(rc.CompDists), total(rc.PA)},
	}
}
