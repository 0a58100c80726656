package table

import (
	"fmt"
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
// loop, on random data whose stored distances include NaN and ±Inf, over
// one super-zone of seven blocks and over three super-zones. After the
// build and after every round of deletes and inserts (which widen, open
// and drop zones and super-zones), Validate must hold — every row inside
// its block's zone, one zone per block, one super-zone per superBlocks
// blocks covering each of their zones — and at random radii the
// zone-skipping range scan must return exactly the survivors and the
// compdists of a full Lemma 1 sweep over every row, and kNN must match
// the linear scan. Validate must also catch each kind of tampering.
func TestZoneExactness(t *testing.T) {
	for _, n := range []int{6*zoneRows + 77, 2*superBlocks*zoneRows + 3*zoneRows + 77} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { testZoneExactness(t, n) })
	}
}

func testZoneExactness(t *testing.T, n int) {
	rng := rand.New(rand.NewSource(11))
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
	// Validate must notice a super-zone that no longer covers its blocks,
	// and one missing.
	z := &tab.zones
	s := len(z.shi[0]) - 1
	hi := z.shi[0][s]
	z.shi[0][s] = math.Inf(-1)
	if err := tab.Validate(); err == nil {
		t.Fatal("Validate accepted a super-zone that excludes its blocks' zones")
	}
	z.shi[0][s] = hi
	if err := tab.Validate(); err != nil {
		t.Fatalf("untampered: %v", err)
	}
	z.slo[2], z.shi[2] = z.slo[2][:s], z.shi[2][:s]
	if err := tab.Validate(); err == nil {
		t.Fatal("Validate accepted a zone map with a super-zone missing")
	}
	z.slo[2], z.shi[2] = z.slo[2][:s+1], z.shi[2][:s+1]
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

// TestRadixSortStableAcrossWorkers checks the radix sort where the build
// splits each pass into runs — at least 64 Ki keys a run, so no table in
// the other tests reaches it — against a stable comparison sort, for
// several run counts and both digit widths in use (the build's byte, the
// range answer's 11 bits, neither of which divides the 21 key bits): keys
// are ordered by their sort bits alone, and keys equal there keep their
// input order.
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
	for _, digit := range []int{8, answerDigit} {
		for _, runs := range []int{1, 2, 3, 8} {
			got := radixSort(slices.Clone(input), make([]uint64, n), make([]int, runs<<digit), rowBits, keyBits, digit)
			if !slices.Equal(got, want) {
				t.Fatalf("%d-bit digits, %d runs: radix order differs from the stable sort", digit, runs)
			}
		}
	}
}

// flatBlockBounds is the one-level block loop's bound pass, kept as the
// reference model of the two-level visitor: for every block, the largest
// zoneGap over the columns, and at least 0.
func flatBlockBounds(z *zoneMap, lb, qd []float64) {
	clear(lb)
	for c, lo := range z.lo {
		q := qd[c]
		lo, hi := lo[:len(lb)], z.hi[c][:len(lb)]
		for b := range lb {
			if g := zoneGap(q, lo[b], hi[b]); g > lb[b] {
				lb[b] = g
			}
		}
	}
}

// flatHeap is the one-level loop's heap: block numbers keyed by their
// bound, ties broken by block number.
type flatHeap struct {
	lb []float64
	b  []int32
}

func (h *flatHeap) less(i, j int) bool {
	x, y := h.b[i], h.b[j]
	return h.lb[x] < h.lb[y] || h.lb[x] == h.lb[y] && x < y
}

func (h *flatHeap) down(i int) {
	n := len(h.b)
	for {
		m := 2*i + 1
		if m >= n {
			return
		}
		if m+1 < n && h.less(m+1, m) {
			m++
		}
		if !h.less(m, i) {
			return
		}
		h.b[i], h.b[m] = h.b[m], h.b[i]
		i = m
	}
}

func (h *flatHeap) pop() int {
	top := h.b[0]
	last := len(h.b) - 1
	h.b[0] = h.b[last]
	h.b = h.b[:last]
	h.down(0)
	return int(top)
}

// flatSequence is the block sequence of the one-level loop: bound every
// block, scan the least first, queue the rest within the limit it left,
// and pop until a bound exceeds the limit current then. limit(k) is the
// limit after k blocks have been scanned.
func flatSequence(z *zoneMap, qd []float64, nb int, limit func(k int) float64) []int {
	lb := make([]float64, nb)
	flatBlockBounds(z, lb, qd)
	first := 0
	for b, g := range lb {
		if g < lb[first] {
			first = b
		}
	}
	seq := []int{}
	if nb == 0 || lb[first] > limit(0) {
		return seq
	}
	seq = append(seq, first)
	h := flatHeap{lb: lb}
	for b, g := range lb {
		if b != first && !(g > limit(1)) {
			h.b = append(h.b, int32(b))
		}
	}
	for i := len(h.b)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h.b) > 0 {
		b := h.pop()
		if lb[b] > limit(len(seq)) {
			break
		}
		seq = append(seq, b)
	}
	return seq
}

// twoLevelSequence is the block sequence of the visitor under the same
// limits.
func twoLevelSequence(z *zoneMap, qd []float64, nb int, limit func(k int) float64) []int {
	var h core.MinHeap[struct{}]
	h.Reserve(nb + (nb+superBlocks-1)/superBlocks)
	v := z.visit(&h, qd, nb, limit(0))
	seq := []int{}
	for b := v.next(limit(0)); b >= 0; b = v.next(limit(len(seq))) {
		seq = append(seq, b)
	}
	return seq
}

// TestVisitMatchesFlatHeap is the exactness test of the two-level
// visitor: on random zone maps of up to five super-zones, each a box of
// its own in pivot space, it must yield
// the block sequence of the one-level loop it replaced — same first
// block, same order, same stop — for random query distances (NaN and ±Inf
// among them) under range limits (radius 0, −1, NaN, random, +Inf) and
// kNN limits (+Inf until the first block, then shrinking, or NaN). Zone
// values are small integers, so bounds tie often; a few rows hold NaN or
// ±Inf; and the maps are churned through add, widen and truncate the way
// Table.Append and Table.Remove drive them, so zones and super-zones are
// wider than their rows. The zone-less layout must come out in storage
// order.
func TestVisitMatchesFlatHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	special := func(v float64) float64 {
		switch rng.Intn(600) {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		}
		return v
	}
	limitOf := func(r, qmax float64) float64 {
		r = max(r, 0)
		return r + (r+qmax)*0x1p-50
	}
	for trial := 0; trial < 40; trial++ {
		l := 1 + rng.Intn(4)
		n := rng.Intn(5*superBlocks*zoneRows + 1)
		cols := make([][]float64, l)
		for c := range cols {
			// Curve-like data: every super-zone a box of its own, every
			// block a smaller box inside it.
			// NaN and ±Inf rows go into one super-zone in four, so that
			// finite super-zone bounds differ and tie.
			cols[c] = make([]float64, n)
			var base, centre int
			var wild bool
			for row := range cols[c] {
				if row%(superBlocks*zoneRows) == 0 {
					base, wild = rng.Intn(40), rng.Intn(4) == 0
				}
				if row%zoneRows == 0 {
					centre = base + rng.Intn(8)
				}
				cols[c][row] = float64(centre + rng.Intn(3))
				if wild {
					cols[c][row] = special(cols[c][row])
				}
			}
		}
		var z zoneMap
		if n > 0 {
			z = buildZones(cols, 1+rng.Intn(3))
		}
		// Churn: swap-deletes and appends, as the table drives them.
		for op := 0; op < rng.Intn(3)*400 && n > 0; op++ {
			if rng.Intn(2) == 0 && n > 1 {
				row, last := rng.Intn(n), n-1
				for c := range cols {
					cols[c][row] = cols[c][last]
					cols[c] = cols[c][:last]
				}
				if row < last {
					for c := range cols {
						z.widen(c, row/zoneRows, cols[c][row])
					}
				}
				z.truncate(last)
				n = last
				continue
			}
			dists := make([]float64, l)
			for c := range dists {
				dists[c] = special(float64(rng.Intn(50)))
				cols[c] = append(cols[c], dists[c])
			}
			z.add(n, dists)
			n++
		}
		nb := (n + zoneRows - 1) / zoneRows
		if n > 0 {
			tab := &Table{cols: cols, zones: z}
			tab.ids = make([]int32, n)
			if err := tab.validateZones(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		for qs := 0; qs < 25; qs++ {
			qd := make([]float64, l)
			qmax := 0.0
			for c := range qd {
				qd[c] = float64(rng.Intn(56))
				if rng.Intn(8) == 0 {
					qd[c] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
				}
				if a := math.Abs(qd[c]); a > qmax {
					qmax = a
				}
			}
			schedules := map[string]func(int) float64{}
			for _, r := range []float64{0, -1, math.NaN(), math.Inf(1), float64(rng.Intn(12)), rng.Float64() * 6} {
				lim := limitOf(r, qmax)
				schedules[fmt.Sprintf("range r=%v", r)] = func(int) float64 { return lim }
			}
			shrink := make([]float64, nb+2)
			shrink[0], shrink[1] = math.Inf(1), limitOf(float64(rng.Intn(20)), qmax)
			for k := 2; k < len(shrink); k++ {
				shrink[k] = shrink[k-1]
				if rng.Intn(3) == 0 {
					shrink[k] *= rng.Float64()
				}
			}
			schedules["knn"] = func(k int) float64 { return shrink[k] }
			schedules["knn NaN"] = func(k int) float64 {
				if k == 0 {
					return math.Inf(1)
				}
				return math.NaN()
			}
			for name, limit := range schedules {
				want := flatSequence(&z, qd, nb, limit)
				if got := twoLevelSequence(&z, qd, nb, limit); !slices.Equal(got, want) {
					t.Fatalf("trial %d (%d rows, %d columns) query %v %s:\n two-level %v\n flat      %v", trial, n, l, qd, name, got, want)
				}
				var none zoneMap
				storage := make([]int, nb)
				for b := range storage {
					storage[b] = b
				}
				if got := twoLevelSequence(&none, qd, nb, limit); !slices.Equal(got, storage) {
					t.Fatalf("trial %d: the zone-less layout visits %v, not storage order", trial, got)
				}
			}
		}
	}
}

// TestRangeAnswerOrder is the property test of the range answer's
// ordering: for id spans whose widths are and are not multiples of the
// radix digit, and answers empty, of one id, on both sides of radixMin
// and of thousands of ids — the span's last id among them — the answer
// must be slices.Sort of the ids, in a slice exactly their length.
func TestRangeAnswerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := &core.Scratch{}
	for _, span := range []int{1, 2, 3, 64, 1000, 1 << answerDigit, 1<<answerDigit + 1, 1<<17 + 3, 1 << 22, 5_000_011} {
		tab := &Table{dir: make([]int32, span)}
		for _, m := range []int{0, 1, radixMin - 1, radixMin, radixMin + 1, 1000, 6000} {
			m = min(m, span)
			seen := map[uint64]bool{}
			var ids []uint64
			if m > 0 {
				ids = append(ids, uint64(span-1))
				seen[uint64(span-1)] = true
			}
			for len(ids) < m {
				if id := uint64(rng.Intn(span)); !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
			want := make([]int, len(ids))
			for i, id := range ids {
				want[i] = int(id)
			}
			slices.Sort(want)
			got := tab.answer(sc, ids)
			if !slices.Equal(got, want) || cap(got) != len(want) {
				t.Fatalf("span %d, %d ids: answer (cap %d) is not the sorted ids", span, m, cap(got))
			}
		}
	}
}
