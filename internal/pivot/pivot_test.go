package pivot

import (
	"math"
	"slices"
	"strings"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

func TestHFPicksOutliers(t *testing.T) {
	// A dense cluster at the origin plus four distant corners: HF must
	// prefer the corners.
	objs := make([]core.Object, 0, 104)
	for i := 0; i < 100; i++ {
		objs = append(objs, core.Vector{float64(i % 10), float64(i / 10)})
	}
	corners := []core.Vector{{1000, 1000}, {-1000, 1000}, {1000, -1000}, {-1000, -1000}}
	cornerIDs := map[int]bool{}
	for _, c := range corners {
		cornerIDs[len(objs)] = true
		objs = append(objs, c)
	}
	ds := core.NewDataset(core.NewSpace(core.L2{}), objs)
	all := ds.LiveIDs()
	foci := HF(ds, all, 3, 1)
	if len(foci) != 3 {
		t.Fatalf("got %d foci", len(foci))
	}
	hits := 0
	for _, f := range foci {
		if cornerIDs[f] {
			hits++
		}
	}
	if hits < 2 {
		t.Fatalf("HF picked only %d corner outliers: %v", hits, foci)
	}
}

func TestHFIDistinctAndLive(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	pv, err := HFI(ds, 6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) != 6 {
		t.Fatalf("got %d pivots", len(pv))
	}
	seen := map[int]bool{}
	for _, p := range pv {
		if seen[p] {
			t.Fatalf("duplicate pivot %d", p)
		}
		seen[p] = true
		if !ds.Live(p) {
			t.Fatalf("pivot %d not live", p)
		}
	}
}

func TestHFIBeatsRandomOnLowerBoundQuality(t *testing.T) {
	ds := testutil.VectorDataset(800, 4, 100, core.L2{}, 9)
	hfi, err := HFI(ds, 4, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rnd := Random(ds, 4, 99)
	// Quality metric: mean PivotLowerBound / true distance over pairs —
	// the objective HFI greedily maximizes.
	quality := func(pv []int) float64 {
		var sum float64
		const pairs = 400
		for i := 0; i < pairs; i++ {
			a, b := (i*13)%800, (i*29+7)%800
			if a == b {
				continue
			}
			d := ds.Distance(a, b)
			if d == 0 {
				continue
			}
			qd := make([]float64, len(pv))
			od := make([]float64, len(pv))
			for j, p := range pv {
				qd[j] = ds.Distance(a, p)
				od[j] = ds.Distance(b, p)
			}
			sum += core.PivotLowerBound(qd, od) / d
		}
		return sum
	}
	if qh, qr := quality(hfi), quality(rnd); qh <= qr*0.95 {
		t.Fatalf("HFI quality %.1f should not trail random %.1f", qh, qr)
	}
}

func TestHFIErrors(t *testing.T) {
	ds := testutil.VectorDataset(50, 3, 10, core.L2{}, 1)
	if _, err := HFI(ds, 0, Options{}); err == nil {
		t.Fatal("k=0 must fail")
	}
	empty := core.NewDataset(core.NewSpace(core.L2{}), nil)
	if _, err := HFI(empty, 2, Options{}); err == nil {
		t.Fatal("empty dataset must fail")
	}
}

// TestHFIOverLargeRequest: HFI chooses among CPScale candidates, so a
// request for 40 pivots or more is an error naming the limit (it used to
// return the candidates in HF order), and a request for 39 selects what
// it always selected.
func TestHFIOverLargeRequest(t *testing.T) {
	ds := testutil.VectorDataset(500, 4, 100, core.L2{}, 7)
	for _, k := range []int{40, 80} {
		if pv, err := HFI(ds, k, Options{Seed: 3}); err == nil || !strings.Contains(err.Error(), "40 candidates") {
			t.Errorf("HFI(%d) = %v, %v; want an error naming the 40 candidates", k, pv, err)
		}
	}
	pv, err := HFI(ds, 39, Options{Seed: 3})
	want := []int{352, 234, 39, 425, 129, 390, 28, 181, 241, 111, 364, 147, 153, 284, 175, 171, 31, 335, 165, 51,
		5, 383, 444, 114, 332, 180, 91, 405, 415, 109, 235, 360, 151, 59, 486, 40, 379, 487, 30}
	if err != nil || !slices.Equal(pv, want) {
		t.Fatalf("HFI(39) = %v, %v; want %v", pv, err, want)
	}
}

// TestHFINaNRows selects pivots over L2 points holding NaN rows. A
// sampled pair with a NaN row scores NaN against every candidate, so no
// candidate won and HFI returned no pivots and no error; the builds
// behind it then failed with "no pivots". It must return the pivots
// asked for, distinct and live.
func TestHFINaNRows(t *testing.T) {
	ds := testutil.VectorDataset(505, 3, 100, core.L2{}, 4)
	for id := 500; id < 505; id++ {
		ds.Object(id).(core.Vector)[1] = math.NaN()
	}
	pv, err := HFI(ds, 5, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) != 5 {
		t.Fatalf("HFI returned %d pivots, want 5", len(pv))
	}
	seen := map[int]bool{}
	for _, p := range pv {
		if seen[p] || !ds.Live(p) {
			t.Fatalf("pivots %v: repeated or dead", pv)
		}
		seen[p] = true
	}
}

func TestSampleBounded(t *testing.T) {
	ds := testutil.VectorDataset(300, 2, 10, core.L2{}, 5)
	s := Sample(ds, Options{SampleSize: 64, Seed: 1})
	if len(s) != 64 {
		t.Fatalf("sample size %d", len(s))
	}
	s2 := Sample(ds, Options{SampleSize: 1000, Seed: 1})
	if len(s2) != 300 {
		t.Fatalf("over-large sample returned %d", len(s2))
	}
}

func TestPSAAssignsLPivotsPerObject(t *testing.T) {
	ds := testutil.VectorDataset(200, 4, 100, core.L2{}, 11)
	st, err := NewPSAState(ds, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CandVals) == 0 {
		t.Fatal("PSA state missing candidates")
	}
	sp := ds.Space()
	for _, id := range ds.LiveIDs() {
		pv, dv := st.Assign(sp, ds.Object(id), 3)
		if len(pv) != 3 || len(dv) != 3 {
			t.Fatalf("object %d has %d pivots", id, len(pv))
		}
		// Distances must be consistent with the snapshotted pivots.
		for j, p := range pv {
			want := sp.Metric().Distance(ds.Object(id), ds.Object(int(p)))
			if dv[j] != want {
				t.Fatalf("object %d pivot %d distance %v, want %v", id, p, dv[j], want)
			}
		}
	}
}

func TestSelectGroupsShape(t *testing.T) {
	ds := testutil.VectorDataset(200, 3, 100, core.L2{}, 13)
	g, err := SelectGroups(ds, 4, 3, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.L != 4 || g.M != 3 || len(g.IDs) != 4 || len(g.Vals[0]) != 3 {
		t.Fatalf("group shape wrong: %+v", g)
	}
	pv, dv := g.AssignExtreme(ds.Space(), ds.Object(0))
	if len(pv) != 4 || len(dv) != 4 {
		t.Fatalf("assignment shape %d/%d", len(pv), len(dv))
	}
	g.ReestimateMu(ds, Options{Seed: 6})
	for gi := range g.Mu {
		for _, mu := range g.Mu[gi] {
			if mu <= 0 {
				t.Fatalf("re-estimated mu %v", mu)
			}
		}
	}
}

func TestEstimateGroupSizeInRange(t *testing.T) {
	ds := testutil.VectorDataset(300, 3, 100, core.L2{}, 17)
	m := EstimateGroupSize(ds, 5, 10, Options{Seed: 3})
	if m < 2 || m > 8 {
		t.Fatalf("estimated m=%d outside [2,8]", m)
	}
}
