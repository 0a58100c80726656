package table

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"metricindex/internal/core"
	"metricindex/internal/testutil"
)

// wildMetric is L2 extended by "wild" objects, marked by a negative
// fourth coordinate and split into three kinds by their first: NaN
// objects are NaN away from every pivot (a negative third coordinate)
// and plain L2 away from everything else; far objects are +Inf away from
// every unmarked object; and far objects of the third kind store -Inf
// for their pivot distances. The stored pivot distances thus include
// NaN, +Inf and -Inf, while query distances stay finite and the triangle
// inequality holds wherever Lemma 1 uses it, so the linear scan stays
// the oracle. It offers no batch or flat kernel, so the table verifies
// through the object path.
type wildMetric struct{}

func (wildMetric) Distance(a, b core.Object) float64 {
	x, y := a.(core.Vector), b.(core.Vector)
	for _, o := range [2][2]core.Vector{{x, y}, {y, x}} {
		wild, other := o[0], o[1]
		if wild[3] >= 0 || other[3] < 0 {
			continue
		}
		pivot := other[2] < 0
		switch int(wild[0]) % 3 {
		case 0:
			if pivot {
				return math.NaN()
			}
		case 1:
			return math.Inf(1)
		default:
			if pivot {
				return math.Inf(-1)
			}
			return math.Inf(1)
		}
	}
	return core.L2{}.Distance(x, y)
}

func (wildMetric) Name() string   { return "wild" }
func (wildMetric) Discrete() bool { return false }

// wildObject draws a vector in [0, 100)^4, marked wild one time in five.
func wildObject(rng *rand.Rand) core.Vector {
	v := core.Vector{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	if rng.Intn(5) == 0 {
		v[3] = -v[3] - 1
	}
	return v
}

// TestZoneExactness is the property test of the zone map and the block
// loop, on random data whose stored distances include NaN and ±Inf.
// After the build and after every round of deletes and inserts (which
// widen, open and drop zones), Validate must hold — every row inside its
// block's zone, one zone per block — and at random radii the
// zone-skipping range scan must return exactly the survivors and the
// compdists of a full Lemma 1 sweep over every row, and kNN must match
// the linear scan.
func TestZoneExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 6*zoneRows + 77
	objs := make([]core.Object, n)
	for i := range objs {
		objs[i] = wildObject(rng)
	}
	pivots := []int{3, 1000, 2000, 3000}
	for _, p := range pivots {
		v := objs[p].(core.Vector)
		v[2], v[3] = -v[2]-1, math.Abs(v[3])
	}
	ds := core.NewDataset(core.NewSpace(wildMetric{}), objs)
	idx, err := NewLAESA(ds, pivots)
	if err != nil {
		t.Fatal(err)
	}
	tab := idx.tab
	if !slices.ContainsFunc(tab.zones.hi[0], func(hi float64) bool { return math.IsInf(hi, 1) }) ||
		!slices.ContainsFunc(tab.zones.lo[0], func(lo float64) bool { return math.IsInf(lo, -1) }) {
		t.Fatal("the data gave no block an infinite zone")
	}
	for round := 0; round < 4; round++ {
		if err := tab.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for qs := 0; qs < 12; qs++ {
			q := core.Vector{rng.Float64() * 120, rng.Float64() * 120, rng.Float64() * 120, rng.Float64() * 120}
			for _, r := range []float64{0, rng.Float64() * 5, rng.Float64() * 30, rng.Float64() * 120, -1} {
				wantIDs, wantCD := fullSweepRange(tab, q, r)
				ds.Space().ResetCompDists()
				got, err := tab.Range(q, r, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cd := ds.Space().CompDists(); !slices.Equal(got, wantIDs) || cd != wantCD {
					t.Fatalf("round %d r=%v: zone scan answered %v with %d compdists, full sweep %v with %d", round, r, got, cd, wantIDs, wantCD)
				}
			}
			testutil.CheckKNN(t, idx, ds, q, 1+rng.Intn(20))
		}
		for i := 0; i < 300; i++ {
			ids := ds.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			if slices.Contains(pivots, id) {
				continue
			}
			if err := idx.Delete(id); err != nil {
				t.Fatal(err)
			}
			if err := ds.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 200+round*150; i++ {
			if err := idx.Insert(ds.Insert(wildObject(rng))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Validate must notice a zone that no longer covers its rows.
	tab.zones.lo[1][2] = math.Inf(1)
	if err := tab.Validate(); err == nil {
		t.Fatal("Validate accepted a zone that excludes its block's rows")
	}
	tab.zones.truncate(tab.Len() - zoneRows)
	if err := tab.Validate(); err == nil {
		t.Fatal("Validate accepted a zone map with a block missing")
	}
}

// fullSweepRange is the reference range scan: Lemma 1 over every row of
// the table in one sweep, then every survivor verified.
func fullSweepRange(tab *Table, q core.Object, r float64) ([]int, int64) {
	m := tab.ds.Space().Metric()
	qd := make([]float64, len(tab.pivots))
	for i, p := range tab.pivots {
		qd[i] = m.Distance(q, p)
	}
	ids := []int{}
	sur := core.SurviveColumns(make([]int32, tab.Len()), qd, tab.cols, 0, tab.Len(), r)
	for _, row := range sur {
		id := int(tab.ids[row])
		if m.Distance(q, tab.ds.Object(id)) <= r {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids, int64(len(qd) + len(sur))
}

// lineMetric serves TestZoneSkipMatchesRowTest: objects are (x, pd), a
// pivot is marked by a negative pd, an object's distance to a pivot is
// its pd and to anything else the gap between the x.
type lineMetric struct{}

func (lineMetric) Distance(a, b core.Object) float64 {
	x, y := a.(core.Vector), b.(core.Vector)
	switch {
	case x[1] < 0 && y[1] < 0:
		return 0
	case x[1] < 0:
		return y[1]
	case y[1] < 0:
		return x[1]
	}
	return math.Abs(x[0] - y[0])
}

func (lineMetric) Name() string   { return "line" }
func (lineMetric) Discrete() bool { return false }

// TestZoneSkipMatchesRowTest pins the rounding case the block limit's
// margin exists for: rows one ulp above 1 from the pivot, a query at 1
// and a radius of 0.75 ulp. The second block holds only such rows, so
// its zone's gap is 1 ulp, above the radius — but the row test compares
// d > q + r, and q + r rounds up to d: Lemma 1 as the sweep applies it
// keeps every row, so the block must not be skipped.
func TestZoneSkipMatchesRowTest(t *testing.T) {
	d := 1 + 0x1p-52
	objs := []core.Object{core.Vector{0, -1}}
	for len(objs) < 2*zoneRows {
		objs = append(objs, core.Vector{0, d})
	}
	ds := core.NewDataset(core.NewSpace(lineMetric{}), objs)
	idx, err := NewLAESA(ds, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	q, r := core.Vector{0, 1}, 1.5*0x1p-53
	wantIDs, wantCD := fullSweepRange(idx.tab, q, r)
	if len(wantIDs) != len(objs)-1 || !(d <= 1+r) {
		t.Fatalf("the case lost its rounding: the full sweep answers %d of the %d rows beside the pivot", len(wantIDs), len(objs)-1)
	}
	ds.Space().ResetCompDists()
	got, err := idx.RangeSearch(q, r)
	if cd := ds.Space().CompDists(); err != nil || !slices.Equal(got, wantIDs) || cd != wantCD {
		t.Fatalf("zone scan answered %d ids with %d compdists (%v), the row test keeps %d with %d", len(got), cd, err, len(wantIDs), wantCD)
	}
}

// TestRadixSortStableAcrossWorkers checks the build's sort where it
// splits each pass into runs — at least 64 Ki keys a run, so no table in
// the other tests reaches it — against a stable comparison sort, for
// every worker count: keys are ordered by their sort bits alone, and keys
// equal there keep their input order.
func TestRadixSortStableAcrossWorkers(t *testing.T) {
	const n, rowBits, keyBits = 5<<16 + 7, 19, 21
	rng := rand.New(rand.NewSource(3))
	input := make([]uint64, n)
	for row := range input {
		key := uint64(rng.Intn(1 << 12)) // few distinct keys: many ties
		if row%5 == 0 {
			key = uint64(rng.Int63n(1 << keyBits))
		}
		input[row] = key<<rowBits | uint64(row)
	}
	want := slices.Clone(input)
	slices.SortStableFunc(want, func(a, b uint64) int { return int(a>>rowBits) - int(b>>rowBits) })
	for _, workers := range []int{0, 1, 2, 3, 8, -1} {
		if got := radixSort(slices.Clone(input), rowBits, keyBits, workers); !slices.Equal(got, want) {
			t.Fatalf("workers %d: radix order differs from the stable sort", workers)
		}
	}
}
